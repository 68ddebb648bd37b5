type kind = Dpi | Zip | Raid | Crypto

let kind_name = function Dpi -> "DPI" | Zip -> "ZIP" | Raid -> "RAID" | Crypto -> "Crypto"

(* Calibrated so that a 48-thread DPI engine saturates around 1 Mpps on
   small frames (producer-bound) and scales with threads on jumbo frames,
   matching the shape of the paper's Figure 8. *)
let overhead_cycles = function Dpi -> 2_000 | Zip -> 3_000 | Raid -> 1_500 | Crypto -> 2_500

let cycles_per_byte = function Dpi -> 10.0 | Zip -> 14.0 | Raid -> 4.0 | Crypto -> 8.0

type cluster = { mutable tlb : Tlb.t; mutable owner : int option; thread_free : int array }

type t = {
  kind : kind;
  cluster_size : int;
  clusters : cluster array;
  mutable faults : Faults.t option;
  mutable garbage_pending : bool;
  mutable sink : Obs.sink;
  mutable track_base : int;
}

(* A hung request "completes" one simulated second out — far past any
   watchdog budget, so supervisors can tell a wedge from a slow engine. *)
let hang_horizon = 1_000_000_000

let create ~kind ~threads ~cluster_size =
  if threads <= 0 || cluster_size <= 0 || threads mod cluster_size <> 0 then
    invalid_arg "Accel.create: cluster size must divide thread count";
  {
    kind;
    cluster_size;
    clusters =
      Array.init (threads / cluster_size) (fun _ ->
          { tlb = Tlb.create ~capacity:128 (); owner = None; thread_free = Array.make cluster_size 0 });
    faults = None;
    garbage_pending = false;
    sink = Obs.null;
    track_base = 0;
  }

let set_faults t f = t.faults <- Some f

let set_sink t sink ~track_base =
  t.sink <- sink;
  t.track_base <- track_base;
  Array.iteri
    (fun ci c ->
      Array.iteri
        (fun ti _ ->
          Obs.name_track sink
            ~track:(track_base + (ci * Array.length c.thread_free) + ti)
            (Printf.sprintf "%s c%d t%d" (kind_name t.kind) ci ti))
        c.thread_free)
    t.clusters

let take_garbage t =
  let g = t.garbage_pending in
  t.garbage_pending <- false;
  g

let kind t = t.kind
let cluster_count t = Array.length t.clusters

let claim_cluster t ~nf =
  let rec go i =
    if i >= Array.length t.clusters then None
    else if t.clusters.(i).owner = None then begin
      t.clusters.(i).owner <- Some nf;
      Some i
    end
    else go (i + 1)
  in
  go 0

let release_clusters t ~nf =
  Array.iter
    (fun c ->
      if c.owner = Some nf then begin
        c.owner <- None;
        (* A fresh, unlocked TLB bank for the next tenant. *)
        c.tlb <- Tlb.create ~capacity:128 ();
        Array.fill c.thread_free 0 (Array.length c.thread_free) 0
      end)
    t.clusters

let cluster_owner t ~cluster = t.clusters.(cluster).owner
let free_clusters t = Array.fold_left (fun acc c -> acc + if c.owner = None then 1 else 0) 0 t.clusters
let cluster_tlb t ~cluster = t.clusters.(cluster).tlb

let service_cycles t ~bytes = overhead_cycles t.kind + int_of_float (cycles_per_byte t.kind *. float_of_int bytes)

(* Consult the fault plan for one request: a hang inflates the cost past
   [hang_horizon] (the thread stays wedged until the cluster is released);
   garbage completes on time but flags the output as untrustworthy. *)
let faulted_cost t ~cost ~bytes =
  match t.faults with
  | None -> cost
  | Some f -> (
    let detail = Printf.sprintf "%s bytes=%d" (kind_name t.kind) bytes in
    match Faults.fire f ~device:"accel" Faults.Accel_hang ~detail with
    | Some _ -> cost + hang_horizon
    | None ->
      (match Faults.fire f ~device:"accel" Faults.Accel_garbage ~detail with
      | Some _ -> t.garbage_pending <- true
      | None -> ());
      cost)

(* Dispatch [cost] cycles onto thread [ti] of cluster [ci].  Retirement
   is computed at dispatch (the model is deterministic), so the span and
   both counters are emitted here; per-thread serialization through
   [thread_free] keeps each track's spans non-overlapping. *)
let dispatch t ~ci ~ti ~cost ~now =
  let c = t.clusters.(ci) in
  let start = max now c.thread_free.(ti) in
  let finish = start + cost in
  c.thread_free.(ti) <- finish;
  Obs.count t.sink Obs.Accel_dispatch;
  Obs.count t.sink Obs.Accel_retire;
  let track = t.track_base + (ci * t.cluster_size) + ti in
  Obs.span_begin t.sink ~ts:start ~track Obs.Accel "accel_op" ~arg:cost;
  Obs.span_end t.sink ~ts:finish ~track Obs.Accel "accel_op" ~arg:cost;
  finish

let submit_cluster t ci ~cost ~now =
  (* Earliest-free thread of the cluster. *)
  let c = t.clusters.(ci) in
  let best = ref 0 in
  Array.iteri (fun i free -> if free < c.thread_free.(!best) then best := i) c.thread_free;
  dispatch t ~ci ~ti:!best ~cost ~now

let submit t ~cluster ~now ~bytes =
  if cluster < 0 || cluster >= Array.length t.clusters then invalid_arg "Accel.submit: bad cluster";
  submit_cluster t cluster ~cost:(faulted_cost t ~cost:(service_cycles t ~bytes) ~bytes) ~now

let submit_any t ~now ~bytes =
  (* Commodity sharing: frontend scheduler picks the globally
     earliest-free thread. *)
  let cost = faulted_cost t ~cost:(service_cycles t ~bytes) ~bytes in
  let best_c = ref 0 and best_t = ref 0 in
  Array.iteri
    (fun ci c ->
      Array.iteri
        (fun ti free -> if free < t.clusters.(!best_c).thread_free.(!best_t) then begin best_c := ci; best_t := ti end)
        c.thread_free)
    t.clusters;
  dispatch t ~ci:!best_c ~ti:!best_t ~cost ~now

let reset_timing t = Array.iter (fun c -> Array.fill c.thread_free 0 (Array.length c.thread_free) 0) t.clusters

type stream_error = Stream_fault of { vaddr : int; write : bool }

let stream_error_to_string = function
  | Stream_fault { vaddr; write } ->
    Printf.sprintf "accelerator TLB fault on %s at vaddr %#x" (if write then "write" else "read") vaddr

(* Streaming I/O through the cluster's TLB bank: one [translate_run] per
   mapped run and one page resolution per 4 KB chunk (the bulk datapath),
   instead of a translation plus a hash lookup per byte. The engine's
   confinement is exactly the TLB bank nf_launch configured and locked:
   any byte outside it faults at its precise virtual address. *)
let stream t ~cluster ~now ~mem ~src ~src_len ~dst ~f =
  if cluster < 0 || cluster >= Array.length t.clusters then invalid_arg "Accel.stream: bad cluster";
  if src_len < 0 then invalid_arg "Accel.stream: bad length";
  let tlb = t.clusters.(cluster).tlb in
  (* Move [len] bytes between vaddr space and [buf] chunk by chunk;
     [copy paddr ~off ~n] does the actual blit for one mapped run. *)
  let move ~vaddr ~len ~access ~copy =
    let rec go off =
      if off >= len then Ok ()
      else begin
        match Tlb.translate_run tlb ~vaddr:(vaddr + off) ~len:(len - off) ~access with
        | None -> Error (Stream_fault { vaddr = vaddr + off; write = access = Tlb.Write })
        | Some (paddr, n) ->
          copy paddr ~off ~n;
          go (off + n)
      end
    in
    go 0
  in
  let inbuf = Bytes.create src_len in
  match
    move ~vaddr:src ~len:src_len ~access:Tlb.Read ~copy:(fun paddr ~off ~n ->
        Physmem.blit_to_bytes mem ~pos:paddr inbuf ~off ~len:n)
  with
  | Error e -> Error e
  | Ok () -> begin
    let out = f (Bytes.unsafe_to_string inbuf) in
    let outbuf = Bytes.unsafe_of_string out in
    let out_len = Bytes.length outbuf in
    match
      move ~vaddr:dst ~len:out_len ~access:Tlb.Write ~copy:(fun paddr ~off ~n ->
          Physmem.blit_from_bytes mem ~pos:paddr outbuf ~off ~len:n)
    with
    | Error e -> Error e
    | Ok () ->
      (* Service cost scales with the streamed input; hang/garbage faults
         apply exactly as for [submit]. *)
      let done_at = submit_cluster t cluster ~cost:(faulted_cost t ~cost:(service_cycles t ~bytes:src_len) ~bytes:src_len) ~now in
      Ok (out_len, done_at)
  end
