type rule_match = {
  src_prefix : (Net.Ipv4_addr.t * int) option;
  dst_prefix : (Net.Ipv4_addr.t * int) option;
  proto : int option;
  src_port : int option;
  dst_port : int option;
  vni : int option;
}

let match_any = { src_prefix = None; dst_prefix = None; proto = None; src_port = None; dst_port = None; vni = None }

type reservation = { mutable rx_bytes : int; mutable tx_bytes : int }

type t = {
  mem : Physmem.t;
  alloc : Alloc.t;
  rx_capacity : int;
  tx_capacity : int;
  mutable rules : (rule_match * int) list; (* insertion order *)
  rings : (int, (int * int) Sched.t) Hashtbl.t; (* nf -> rx descriptors *)
  reservations : (int, reservation) Hashtbl.t;
  mutable wire : Bytes.t list; (* newest first *)
  mutable wire_n : int; (* frames put on the wire so far *)
  mutable drops : int;
  mutable faults : Faults.t option;
  mutable sink : Obs.sink;
  mutable track : int;
}

let create mem alloc ~rx_buffer_bytes ~tx_buffer_bytes =
  {
    mem;
    alloc;
    rx_capacity = rx_buffer_bytes;
    tx_capacity = tx_buffer_bytes;
    rules = [];
    rings = Hashtbl.create 16;
    reservations = Hashtbl.create 16;
    wire = [];
    wire_n = 0;
    drops = 0;
    faults = None;
    sink = Obs.null;
    track = 0;
  }

let set_faults t f = t.faults <- Some f

let set_sink t sink ~track =
  t.sink <- sink;
  t.track <- track;
  (* Hash-order iteration is fine here: redirecting every ring's sink is
     idempotent and order-insensitive — no artifact records the order. *)
  Hashtbl.iter (fun _ ring -> Sched.set_sink ring sink ~track) t.rings

(* Every drop funnels through here so the counter and the trace instant
   cannot drift apart. *)
let drop t =
  t.drops <- t.drops + 1;
  Obs.count t.sink Obs.Pktio_drop;
  Obs.instant t.sink ~ts:(Obs.seq t.sink) ~track:t.track Obs.Pktio "pktio_drop" ~arg:t.drops

let add_rule t ~m ~nf = t.rules <- t.rules @ [ (m, nf) ]
let remove_rules_for t ~nf = t.rules <- List.filter (fun (_, n) -> n <> nf) t.rules

(* These folds are pure sums over int fields: addition commutes, so
   [Hashtbl.fold]'s hash-order visit cannot change the result. *)
let reserved_rx t = Hashtbl.fold (fun _ r acc -> acc + r.rx_bytes) t.reservations 0
let reserved_tx t = Hashtbl.fold (fun _ r acc -> acc + r.tx_bytes) t.reservations 0
let rx_available t = t.rx_capacity - reserved_rx t
let tx_available t = t.tx_capacity - reserved_tx t

let reserve ?(sched = Sched.Fifo) t ~nf ~rx_bytes ~tx_bytes =
  if Hashtbl.mem t.reservations nf then Error "NF already has a packet pipeline"
  else if rx_bytes > rx_available t then Error "insufficient RX port buffer space"
  else if tx_bytes > tx_available t then Error "insufficient TX port buffer space"
  else begin
    Hashtbl.replace t.reservations nf { rx_bytes; tx_bytes };
    let ring = Sched.create sched in
    Sched.set_sink ring t.sink ~track:t.track;
    Hashtbl.replace t.rings nf ring;
    Ok ()
  end

let scheduler_of t ~nf = Option.map Sched.policy (Hashtbl.find_opt t.rings nf)

let release t ~nf =
  (* Free any queued buffers before dropping the ring. *)
  (match Hashtbl.find_opt t.rings nf with
  | Some q -> Sched.iter (fun (addr, _) -> Alloc.free t.alloc addr) q
  | None -> ());
  Hashtbl.remove t.reservations nf;
  Hashtbl.remove t.rings nf;
  remove_rules_for t ~nf

let rule_matches m (p : Net.Packet.t) ~vni =
  let pf = Net.Packet.flow p in
  (match m.src_prefix with None -> true | Some (pr, l) -> Net.Ipv4_addr.in_prefix pf.src_ip ~prefix:pr ~len:l)
  && (match m.dst_prefix with None -> true | Some (pr, l) -> Net.Ipv4_addr.in_prefix pf.dst_ip ~prefix:pr ~len:l)
  && (match m.proto with None -> true | Some pr -> pr = pf.proto)
  && (match m.src_port with None -> true | Some sp -> sp = pf.src_port)
  && (match m.dst_port with None -> true | Some dp -> dp = pf.dst_port)
  && match m.vni with None -> true | Some v -> vni = Some v

(* Link-level gray failures at ingress: a dropped frame never reaches the
   switch; a corrupted frame continues with one bit flipped (in a copy),
   to be caught downstream by the NF's checksum verification. *)
let rx_fault t frame =
  match t.faults with
  | None -> Ok frame
  | Some f -> (
    let len = Bytes.length frame in
    match Faults.fire f ~device:"pktio" Faults.Rx_drop ~detail:(Printf.sprintf "len=%d dropped at ingress" len) with
    | Some _ -> Error "injected RX drop"
    | None -> (
      match Faults.fire f ~device:"pktio" Faults.Rx_corrupt ~detail:(Printf.sprintf "len=%d bit-flip at ingress" len) with
      | None -> Ok frame
      | Some _ ->
        let frame = Bytes.copy frame in
        let byte = Faults.draw_int f len and bit = Faults.draw_int f 8 in
        Bytes.set frame byte (Char.chr (Char.code (Bytes.get frame byte) lxor (1 lsl bit)));
        Ok frame))

(* The per-frame pipeline, minus the RX counter: [deliver] counts each
   success as it happens, [deliver_batch] counts once per batch.  All
   other observable effects (drops, faults, allocator and scheduler
   state) are per-frame in both paths. *)
let deliver_frame t frame =
  match rx_fault t frame with
  | Error e ->
    drop t;
    Error e
  | Ok frame -> (
  match Net.Packet.parse ~verify_checksums:false frame with
  | Error e ->
    drop t;
    Error (Format.asprintf "unparseable frame: %a" Net.Packet.pp_parse_error e)
  | Ok pkt -> begin
    let vni = match Net.Vxlan.decapsulate pkt with Ok { vni; _ } -> Some vni | Error _ -> None in
    match List.find_opt (fun (m, _) -> rule_matches m pkt ~vni) t.rules with
    | None ->
      drop t;
      Error "no switching rule matches"
    | Some (_, nf) -> begin
      match Hashtbl.find_opt t.rings nf with
      | None ->
        drop t;
        Error "destination NF has no packet pipeline"
      | Some ring -> begin
        let len = Bytes.length frame in
        match Alloc.alloc t.alloc ~owner:(Physmem.Nf nf) len with
        | None ->
          drop t;
          Error "buffer pool exhausted"
        | Some addr ->
          (* Bulk enqueue: the frame lands in DRAM via the page-granular
             blit, with no intermediate string copy. *)
          Physmem.blit_from_bytes t.mem ~pos:addr frame ~off:0 ~len;
          (* Scheduler metadata: flow key + size; packets to well-known
             (privileged) ports ride the high-priority class. *)
          let flow = Net.Packet.flow pkt in
          let meta =
            {
              Sched.flow = Net.Five_tuple.hash flow;
              bytes = len;
              level = (if flow.Net.Five_tuple.dst_port < 1024 then 0 else 1);
              weight = 1;
            }
          in
          Sched.enqueue ring meta (addr, len);
          Ok nf
      end
    end
  end)

let deliver t frame =
  match deliver_frame t frame with
  | Ok nf ->
    Obs.count t.sink Obs.Pktio_rx;
    Ok nf
  | Error _ as e -> e

let deliver_batch t frames =
  let queued = ref 0 and rejected = ref 0 in
  List.iter
    (fun frame ->
      match deliver_frame t frame with Ok _ -> incr queued | Error _ -> incr rejected)
    frames;
  (* One amortized counter bump covers the whole batch; totals match the
     per-frame path exactly. *)
  if !queued > 0 then Obs.count_n t.sink Obs.Pktio_rx !queued;
  (!queued, !rejected)

let rx_pop t ~nf =
  match Hashtbl.find_opt t.rings nf with
  | None -> None
  | Some q -> Sched.dequeue q

let rx_depth t ~nf = match Hashtbl.find_opt t.rings nf with None -> 0 | Some q -> Sched.length q

let transmit t ~nf:_ ~addr ~len =
  let dropped =
    match t.faults with
    | None -> false
    | Some f ->
      Faults.fire f ~device:"pktio" Faults.Tx_drop ~detail:(Printf.sprintf "len=%d eaten at egress" len) <> None
  in
  if dropped then drop t
  else begin
    (* Bulk dequeue: drain the buffer straight into the wire frame. *)
    let frame = Bytes.create len in
    Physmem.blit_to_bytes t.mem ~pos:addr frame ~off:0 ~len;
    t.wire <- frame :: t.wire;
    t.wire_n <- t.wire_n + 1;
    Obs.count t.sink Obs.Pktio_tx
  end;
  Alloc.free t.alloc addr

let wire_out t = List.rev t.wire

(* Walk only the [wire_n - count] newest cells; reversing them on the way
   yields oldest first. *)
let wire_since t ~count =
  let rec take n l acc = if n <= 0 then acc else match l with [] -> acc | f :: rest -> take (n - 1) rest (f :: acc) in
  take (t.wire_n - count) t.wire []

let drop_count t = t.drops

let recycle t ~addr = Alloc.free t.alloc addr

let deliver_to t ~nf frame =
  match Hashtbl.find_opt t.rings nf with
  | None -> Error "destination NF has no packet pipeline"
  | Some ring -> begin
    let len = Bytes.length frame in
    match Alloc.alloc t.alloc ~owner:(Physmem.Nf nf) len with
    | None ->
      drop t;
      Error "buffer pool exhausted"
    | Some addr ->
      Physmem.blit_from_bytes t.mem ~pos:addr frame ~off:0 ~len;
      let meta =
        match Net.Packet.parse ~verify_checksums:false frame with
        | Ok pkt ->
          let flow = Net.Packet.flow pkt in
          {
            Sched.flow = Net.Five_tuple.hash flow;
            bytes = len;
            level = (if flow.Net.Five_tuple.dst_port < 1024 then 0 else 1);
            weight = 1;
          }
        | Error _ -> { Sched.flow = 0; bytes = len; level = 1; weight = 1 }
      in
      Sched.enqueue ring meta (addr, len);
      Obs.count t.sink Obs.Pktio_rx;
      Ok ()
  end
