(* Cache model gates.

   - Golden: the paper outputs the L2 model drives (Figure 5's co-run IPC
     model, Figure 5a medians and the cache-isolation ablation), pinned
     exactly — integers as-is, floats printed %.17g — so any change to
     the cache's victim choice, hit search or statistics shows up as a
     diff.
   - Differential: random access/flush/rebalance sequences against the
     record-per-line reference in cache_ref.ml, comparing every result,
     statistic and sink event, plus the same sequence under the null sink.
   - Allocation budgets for access, an empty flush and create, and the
     domain range checks. *)

open Nicsim

let g = Printf.sprintf "%.17g"

(* ---------- golden paper outputs ---------- *)

let cpu_model_lines () =
  let packets = 150 in
  let streams =
    Array.of_list
      (List.mapi
         (fun d n -> Uarch.Workload.rebase (Uarch.Workload.stream ~packets n) ~domain:d)
         [ "FW"; "LB"; "NAT" ])
  in
  List.concat_map
    (fun (iname, isolation) ->
      let res = Uarch.Cpu_model.run ~horizon:200_000 ~l2_bytes:(64 * 1024) ~isolation streams in
      Array.to_list
        (Array.mapi
           (fun d (r : Uarch.Cpu_model.domain_result) ->
             Printf.sprintf "%s %d %s instr=%d cycles=%d ipc=%s l1=%s l2=%s" iname d r.nf r.instructions
               r.cycles (g r.ipc) (g r.l1_miss_rate) (g r.l2_miss_rate))
           res))
    Uarch.Cpu_model.[ ("baseline", Baseline); ("snic", Snic); ("cache_only", Cache_only); ("bus_only", Bus_only) ]

let figure5a_lines () =
  List.map
    (fun (nf, series) ->
      String.concat " "
        (nf
        :: List.map
             (fun (size, (s : Uarch.Colocation.stats)) ->
               Printf.sprintf "%d median=%s p1=%s p99=%s" size (g s.median) (g s.p1) (g s.p99))
             series))
    (Uarch.Colocation.figure5a ~l2_sizes:[ 64 * 1024 ] ~packets:150 ())

(* The two side channels of the bench's cache ablation, same geometry
   and addresses: prime+probe (victim evictions of primed lines) and
   reload (attacker hits on lines the victim cached). *)
let prime_probe mode =
  let run victim_active =
    let c = Cache.create ~sets:64 ~ways:8 ~line_bits:6 ~mode ~domains:2 in
    for i = 0 to 511 do
      ignore (Cache.access c ~domain:0 ~addr:(i * 64))
    done;
    if victim_active then
      for i = 0 to 1023 do
        ignore (Cache.access c ~domain:1 ~addr:(0x800000 + (i * 64)))
      done;
    let misses = ref 0 in
    for i = 0 to 511 do
      if Cache.access c ~domain:0 ~addr:(i * 64) = Cache.Miss then incr misses
    done;
    !misses
  in
  run true - run false

let reload mode =
  let run victim_active =
    let c = Cache.create ~sets:64 ~ways:8 ~line_bits:6 ~mode ~domains:2 in
    if victim_active then
      for i = 0 to 63 do
        ignore (Cache.access c ~domain:1 ~addr:(0x400000 + (i * 64)))
      done;
    let hits = ref 0 in
    for i = 0 to 63 do
      if Cache.access c ~domain:0 ~addr:(0x400000 + (i * 64)) = Cache.Hit then incr hits
    done;
    !hits
  in
  run true - run false

let ablation_lines () =
  List.map
    (fun (name, mode) -> Printf.sprintf "%s prime+probe=%d reload=%d" name (prime_probe mode) (reload mode))
    Cache.[ ("shared", Shared); ("soft", Soft); ("hard", Hard); ("secdcp", Secdcp) ]

(* Captured from the record-per-line cache model. *)
let expected_cpu_model =
  [
    "baseline 0 FW instr=154260 cycles=200172 ipc=0.77063725196331156 l1=0.48541423570595099 l2=0.93509615384615385";
    "baseline 1 LB instr=163240 cycles=200152 ipc=0.81558015907909986 l1=0.49865229110512127 l2=0.99729729729729732";
    "baseline 2 NAT instr=154080 cycles=200000 ipc=0.77039999999999997 l1=0.46028037383177572 l2=0.97969543147208127";
    "snic 0 FW instr=156600 cycles=200104 ipc=0.78259305161316117 l1=0.47931034482758622 l2=0.95203836930455632";
    "snic 1 LB instr=161040 cycles=200196 ipc=0.80441167655697421 l1=0.50409836065573765 l2=0.99186991869918695";
    "snic 2 NAT instr=157680 cycles=200236 ipc=0.78747078447432028 l1=0.45319634703196349 l2=0.98992443324937029";
    "cache_only 0 FW instr=152640 cycles=200168 ipc=0.76255945006194792 l1=0.49056603773584906 l2=0.95192307692307687";
    "cache_only 1 LB instr=163460 cycles=200196 ipc=0.8164998301664369 l1=0.49798115746971738 l2=0.99189189189189186";
    "cache_only 2 NAT instr=153900 cycles=200136 ipc=0.76897709557500904 l1=0.46081871345029241 l2=0.98984771573604058";
    "bus_only 0 FW instr=157140 cycles=200140 ipc=0.78515039472369341 l1=0.47880870561282934 l2=0.93540669856459335";
    "bus_only 1 LB instr=160820 cycles=200156 ipc=0.80347329083315011 l1=0.50478796169630646 l2=0.99728997289972898";
    "bus_only 2 NAT instr=157680 cycles=200092 ipc=0.78803750274873563 l1=0.45319634703196349 l2=0.98488664987405539";
  ]

let expected_figure5a =
  [
    "FW 65536 median=1.3737681761305798 p1=-1.1746326452927756 p99=1.7179293312585648";
    "DPI 65536 median=2.1808831228094516 p1=0.96737124923794071 p99=3.4948595808791487";
    "NAT 65536 median=1.9582895117545185 p1=0.023394231619282342 p99=2.6478409920257278";
    "LB 65536 median=0.18755527260559957 p1=-1.9343483807959416 p99=0.6067913843376711";
    "LPM 65536 median=0.6884143959088207 p1=-1.489681151010424 p99=1.2059861724448151";
    "Mon 65536 median=0.46750785592492572 p1=-2.0484687119212381 p99=0.88689030428666793";
    "CKF 65536 median=2.3679253201169645 p1=-2.118463854429038 p99=2.6355776638512052";
    "SYNP 65536 median=1.5651386846423421 p1=-1.9031630854082091 p99=1.887290862746871";
  ]

let expected_ablation =
  [
    "shared prime+probe=512 reload=64";
    "soft prime+probe=0 reload=64";
    "hard prime+probe=0 reload=0";
    "secdcp prime+probe=0 reload=0";
  ]

let test_golden_cpu_model () =
  Alcotest.(check (list string)) "Cpu_model.run, four isolations" expected_cpu_model (cpu_model_lines ())

let test_golden_figure5a () =
  Alcotest.(check (list string)) "figure5a 64 KB medians" expected_figure5a (figure5a_lines ())

let test_golden_ablation () = Alcotest.(check (list string)) "ablation_cache deltas" expected_ablation (ablation_lines ())

(* ---------- differential against the record model ---------- *)

type op = Access of int * int (* domain, address *) | Flush of int | Rebalance

type case = { mode : int; sets : int; ways : int; domains : int; line_bits : int; ops : op list }

let modes = Cache.[| Shared; Soft; Hard; Secdcp |]
let ref_modes = Cache_ref.[| Shared; Soft; Hard; Secdcp |]
let mode_names = [| "Shared"; "Soft"; "Hard"; "Secdcp" |]

let show_op = function
  | Access (d, a) -> Printf.sprintf "access d%d 0x%x" d a
  | Flush d -> Printf.sprintf "flush d%d" d
  | Rebalance -> "rebalance"

let show_case c =
  Printf.sprintf "%s sets=%d ways=%d domains=%d line_bits=%d [%s]" mode_names.(c.mode) c.sets c.ways c.domains
    c.line_bits
    (String.concat "; " (List.map show_op c.ops))

(* Geometries within create's preconditions: sets 1-16 (powers of two),
   ways 1-8, domains 1-4, at least one way per domain when partitioned
   and two domains under Secdcp. Half the addresses come from four hot
   lines so domain 0's miss rate crosses both rebalance thresholds. *)
let gen_case =
  let open QCheck.Gen in
  let* mode = int_bound 3 in
  let* sets = map (fun k -> 1 lsl k) (int_bound 4) in
  let* domains = int_range (if mode = 3 then 2 else 1) 4 in
  let* ways = int_range (if mode = 0 then 1 else domains) 8 in
  let* line_bits = int_bound 6 in
  let addr =
    let* line = oneof [ int_bound 3; int_bound (4 * sets * ways) ] in
    let* offset = int_bound ((1 lsl line_bits) - 1) in
    return ((line lsl line_bits) lor offset)
  in
  let op =
    frequency
      [
        (12, map2 (fun d a -> Access (d, a)) (int_bound (domains - 1)) addr);
        (2, map (fun d -> Flush d) (int_bound (domains - 1)));
        (1, return Rebalance);
      ]
  in
  let* n = int_range 1 250 in
  let* ops = list_repeat n op in
  return { mode; sets; ways; domains; line_bits; ops }

(* One cache implementation seen through the operations under test. *)
type model = {
  access : domain:int -> addr:int -> bool; (* hit? *)
  flush : int -> unit;
  rebalance : unit -> (int, string) result;
  stats : int -> int * int * int;
  occupancy : int -> int;
  fill_ways : int -> int * int;
  allocation : int -> int;
}

let rebalance_result f = try Ok (f ()) with Invalid_argument m -> Error m

let cache_model c sink =
  let c = Cache.create ~sets:c.sets ~ways:c.ways ~line_bits:c.line_bits ~mode:modes.(c.mode) ~domains:c.domains in
  Cache.set_sink c sink ~track:3;
  {
    access = (fun ~domain ~addr -> Cache.access c ~domain ~addr = Cache.Hit);
    flush = Cache.flush_domain c;
    rebalance = (fun () -> rebalance_result (fun () -> Cache.rebalance c));
    stats =
      (fun domain ->
        let s = Cache.stats c ~domain in
        (s.hits, s.misses, s.evicted_by_others));
    occupancy = (fun domain -> Cache.occupancy c ~domain);
    fill_ways = (fun domain -> Cache.fill_ways c ~domain);
    allocation = (fun domain -> Cache.allocation c ~domain);
  }

let ref_model c sink =
  let c =
    Cache_ref.create ~sets:c.sets ~ways:c.ways ~line_bits:c.line_bits ~mode:ref_modes.(c.mode) ~domains:c.domains
  in
  Cache_ref.set_sink c sink ~track:3;
  {
    access = (fun ~domain ~addr -> Cache_ref.access c ~domain ~addr = Cache_ref.Hit);
    flush = Cache_ref.flush_domain c;
    rebalance = (fun () -> rebalance_result (fun () -> Cache_ref.rebalance c));
    stats =
      (fun domain ->
        let s = Cache_ref.stats c ~domain in
        (s.hits, s.misses, s.evicted_by_others));
    occupancy = (fun domain -> Cache_ref.occupancy c ~domain);
    fill_ways = (fun domain -> Cache_ref.fill_ways c ~domain);
    allocation = (fun domain -> Cache_ref.allocation c ~domain);
  }

let cache_counters = [ "snic_cache_hit_total"; "snic_cache_miss_total"; "snic_cache_fill_total"; "snic_cache_evict_total" ]

let counter sink name =
  match Obs.registry sink with
  | None -> 0
  | Some reg -> Option.value ~default:0 (List.assoc_opt name (Obs.Metrics.counters reg))

(* What the sink holds after a step: the four counters, the number of
   events and the newest one. A step emits at most one event, so equal
   per-step views mean equal event lists. *)
let sink_view sink =
  let events = Obs.events sink in
  let newest =
    match List.rev events with
    | [] -> "none"
    | e :: _ -> Printf.sprintf "%s ts=%d track=%d arg=%d" e.Obs.name e.ts e.track e.arg
  in
  Printf.sprintf "%s events=%d newest=%s"
    (String.concat " " (List.map (fun n -> string_of_int (counter sink n)) cache_counters))
    (List.length events) newest

(* Run [c.ops] on [m], returning per step what the model reports,
   followed by [view ()] taken after the step. *)
let run_model ?(view = fun () -> "") c m =
  List.map
    (fun op ->
      let result =
        match op with
        | Access (domain, addr) -> if m.access ~domain ~addr then "Hit" else "Miss"
        | Flush d ->
          m.flush d;
          "flushed"
        | Rebalance -> ( match m.rebalance () with Ok n -> Printf.sprintf "moved %d" n | Error e -> e)
      in
      let per_domain =
        List.init c.domains (fun d ->
            let h, mi, e = m.stats d and lo, hi = m.fill_ways d in
            Printf.sprintf "d%d h=%d m=%d e=%d occ=%d fill=%d-%d alloc=%d" d h mi e (m.occupancy d) lo hi
              (m.allocation d))
      in
      String.concat " | " ((show_op op :: result :: per_domain) @ [ view () ]))
    c.ops

let run_recorded c make =
  let sink = Obs.create () in
  run_model ~view:(fun () -> sink_view sink) c (make c sink)

let first_mismatch a b =
  let rec go i = function
    | x :: xs, y :: ys -> if x = y then go (i + 1) (xs, ys) else Some (i, x, y)
    | [], [] -> None
    | x :: _, [] -> Some (i, x, "<missing>")
    | [], y :: _ -> Some (i, "<missing>", y)
  in
  go 0 (a, b)

let prop_matches_reference =
  QCheck.Test.make ~name:"flat cache = record reference (results, stats, sink), null sink agrees" ~count:400
    (QCheck.make ~print:show_case gen_case) (fun c ->
      let report what a b =
        match first_mismatch a b with
        | None -> true
        | Some (i, x, y) -> QCheck.Test.fail_reportf "%s differ at step %d:\n  %s\n  %s" what i x y
      in
      let flat = run_recorded c cache_model and reference = run_recorded c ref_model in
      report "flat vs reference" flat reference
      && report "null sink vs recording sink" (run_model c (cache_model c Obs.null))
           (run_model c (cache_model c (Obs.create ()))))

(* ---------- allocation budgets (null sink) ---------- *)

(* Minor words allocated by [n] calls of [f], measured the way
   test_obs.ml measures the TLB hit path. The two boxed [Gc.minor_words]
   results add a few words to the total, never one per call. *)
let minor_words n f =
  let before = Gc.minor_words () in
  for i = 1 to n do
    f i
  done;
  Gc.minor_words () -. before

let test_access_allocates_nothing () =
  Array.iteri
    (fun m mode ->
      let c = Cache.create ~sets:16 ~ways:8 ~line_bits:6 ~mode ~domains:4 in
      (* Hits, misses, self- and cross-domain evictions: 4 domains
         alternate between 8 hot lines and 1,024 cold ones in a 128-line
         cache. *)
      let touch i =
        let h = (i * 0x9E3779B1) lsr 11 in
        let line = if h land 1 = 0 then (h lsr 1) land 7 else (h lsr 1) land 1023 in
        ignore (Cache.access c ~domain:((h lsr 12) land 3) ~addr:(line * 64))
      in
      for i = 1 to 5_000 do
        touch i
      done;
      let words = minor_words 20_000 touch in
      let s = Cache.stats c ~domain:0 and victim = Cache.stats c ~domain:1 in
      Alcotest.(check bool)
        (mode_names.(m) ^ ": the loop hits and misses (and evicts across domains when Shared)")
        true
        (s.hits > 0 && s.misses > 0 && (mode <> Cache.Shared || victim.evicted_by_others > 0));
      Alcotest.(check bool)
        (Printf.sprintf "%s: 0 words per access (%.0f words for 20,000 accesses)" mode_names.(m) words)
        true (words <= 8.))
    modes

let test_empty_flush_allocates_nothing () =
  let c = Cache.create ~sets:4096 ~ways:16 ~line_bits:6 ~mode:Cache.Hard ~domains:16 in
  for i = 0 to 999 do
    ignore (Cache.access c ~domain:0 ~addr:(i * 64))
  done;
  Cache.flush_domain c 5;
  let words = minor_words 1_000 (fun _ -> Cache.flush_domain c 5) in
  Alcotest.(check bool) (Printf.sprintf "0 words per empty flush (%.0f for 1,000)" words) true (words <= 8.);
  Alcotest.(check int) "domain 0 untouched" 1000 (Cache.occupancy c ~domain:0)

let test_create_budget () =
  let sets = 4096 and ways = 16 in
  Gc.minor ();
  let before = Gc.quick_stat () in
  let c = Cache.create ~sets ~ways ~line_bits:6 ~mode:Cache.Hard ~domains:16 in
  let after = Gc.quick_stat () in
  ignore (Sys.opaque_identity c);
  let minor = after.minor_words -. before.minor_words and major = after.major_words -. before.major_words in
  let budget = float_of_int ((3 * sets * ways) + 4096) in
  Alcotest.(check bool)
    (Printf.sprintf "create 4096x16: %.0f minor + %.0f major words <= 3 per line + 4096 (%.0f)" minor major budget)
    true
    (minor +. major <= budget)

(* ---------- domain range checks ---------- *)

let test_bad_domain_rejected () =
  let c = Cache.create ~sets:4 ~ways:4 ~line_bits:6 ~mode:Cache.Hard ~domains:2 in
  let bad fn = Invalid_argument ("Cache." ^ fn ^ ": bad domain") in
  Alcotest.check_raises "flush_domain" (bad "flush_domain") (fun () -> Cache.flush_domain c 2);
  Alcotest.check_raises "stats" (bad "stats") (fun () -> ignore (Cache.stats c ~domain:(-1)));
  Alcotest.check_raises "occupancy" (bad "occupancy") (fun () -> ignore (Cache.occupancy c ~domain:2));
  Alcotest.check_raises "fill_ways" (bad "fill_ways") (fun () -> ignore (Cache.fill_ways c ~domain:(-1)));
  Alcotest.check_raises "allocation" (bad "allocation") (fun () -> ignore (Cache.allocation c ~domain:2));
  Alcotest.check_raises "access" (bad "access") (fun () -> ignore (Cache.access c ~domain:2 ~addr:0))

let suite =
  [
    Alcotest.test_case "golden: Cpu_model.run per domain" `Quick test_golden_cpu_model;
    Alcotest.test_case "golden: figure 5a at 64 KB" `Slow test_golden_figure5a;
    Alcotest.test_case "golden: ablation_cache deltas" `Quick test_golden_ablation;
    QCheck_alcotest.to_alcotest prop_matches_reference;
    Alcotest.test_case "access allocates nothing" `Quick test_access_allocates_nothing;
    Alcotest.test_case "empty flush allocates nothing" `Quick test_empty_flush_allocates_nothing;
    Alcotest.test_case "create: at most 3 words per line" `Quick test_create_budget;
    Alcotest.test_case "bad domain rejected" `Quick test_bad_domain_rejected;
  ]
