type stats = { median : float; p1 : float; p99 : float }

let default_l2_sizes =
  [ 8 * 1024; 16 * 1024; 32 * 1024; 64 * 1024; 128 * 1024; 256 * 1024; 512 * 1024;
    1 lsl 20; 2 lsl 20; 4 lsl 20; 8 lsl 20; 16 lsl 20 ]

let default_cotenancy = [ 2; 3; 4; 8; 16 ]

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor pos) and hi = int_of_float (Float.ceil pos) in
    let frac = pos -. Float.floor pos in
    (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)
  end

let stats_of values =
  let arr = Array.of_list values in
  Array.sort compare arr;
  { median = percentile arr 0.5; p1 = percentile arr 0.01; p99 = percentile arr 0.99 }

let mean = function [] -> 0. | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let run_mix ?packets ?seed ~l2_bytes names =
  let streams =
    Array.of_list (List.mapi (fun d name -> Workload.rebase (Workload.stream ?packets ?seed name) ~domain:d) names)
  in
  Cpu_model.degradation ~l2_bytes streams

let pair_degradations ?packets ?seed ~l2_bytes target =
  List.map
    (fun partner ->
      let degs = run_mix ?packets ?seed ~l2_bytes [ target; partner ] in
      snd degs.(0))
    Workload.names

let figure5a ?(l2_sizes = default_l2_sizes) ?packets () =
  List.map
    (fun nf ->
      ( nf,
        List.map (fun size -> (size, stats_of (pair_degradations ?packets ~l2_bytes:size nf))) l2_sizes ))
    Workload.names

let figure5b ?(cotenancy = default_cotenancy) ?(samples = 6) ?packets ?seed () =
  let l2_bytes = 4 lsl 20 in
  let all = Array.of_list Workload.names in
  List.map
    (fun nf ->
      ( nf,
        List.map
          (fun n ->
            (* Sample partner mixes deterministically; with 2 tenants all
               partners are enumerated instead. *)
            let degs =
              if n = 2 then pair_degradations ?packets ?seed ~l2_bytes nf
              else begin
                (* The mix-sampling seed derives from the caller's seed
                   when given (offset per degree so degrees stay
                   decorrelated); the default preserves historic output. *)
                let rng = Trace.Rng.create ~seed:(match seed with None -> 0xC0 + n | Some s -> s + 0xC0 + n) in
                List.init samples (fun _ ->
                    let partners = List.init (n - 1) (fun _ -> Trace.Rng.pick rng all) in
                    let degs = run_mix ?packets ?seed ~l2_bytes (nf :: partners) in
                    snd degs.(0))
              end
            in
            (n, stats_of degs))
          cotenancy ))
    Workload.names
