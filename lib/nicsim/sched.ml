type policy = Fifo | Drr of { quantum : int } | Priority of { levels : int } | Wfq

let policy_name = function
  | Fifo -> "fifo"
  | Drr { quantum } -> Printf.sprintf "drr-%d" quantum
  | Priority { levels } -> Printf.sprintf "prio-%d" levels
  | Wfq -> "wfq"

type meta = { flow : int; bytes : int; level : int; weight : int }

(* A small array-backed min-heap on float keys, for the WFQ virtual
   finish times. *)
module Heap = struct
  type 'a t = { mutable a : (float * 'a) array; mutable n : int }

  let create () = { a = Array.make 16 (0., Obj.magic 0); n = 0 }

  let swap h i j =
    let t = h.a.(i) in
    h.a.(i) <- h.a.(j);
    h.a.(j) <- t

  let push h k v =
    if h.n = Array.length h.a then begin
      let b = Array.make (2 * h.n) h.a.(0) in
      Array.blit h.a 0 b 0 h.n;
      h.a <- b
    end;
    h.a.(h.n) <- (k, v);
    h.n <- h.n + 1;
    let i = ref (h.n - 1) in
    while !i > 0 && fst h.a.((!i - 1) / 2) > fst h.a.(!i) do
      swap h ((!i - 1) / 2) !i;
      i := (!i - 1) / 2
    done

  let pop h =
    if h.n = 0 then None
    else begin
      let top = h.a.(0) in
      h.n <- h.n - 1;
      h.a.(0) <- h.a.(h.n);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.n && fst h.a.(l) < fst h.a.(!smallest) then smallest := l;
        if r < h.n && fst h.a.(r) < fst h.a.(!smallest) then smallest := r;
        if !smallest <> !i then begin
          swap h !i !smallest;
          i := !smallest
        end
        else continue := false
      done;
      Some top
    end

  let iter f h =
    for i = 0 to h.n - 1 do
      f (snd h.a.(i))
    done
end

type 'a drr_state = {
  queues : (int, (meta * 'a) Queue.t) Hashtbl.t;
  mutable rotation : int list; (* flows in round-robin order, current first *)
  deficits : (int, int) Hashtbl.t;
  quantum : int;
}

type 'a state =
  | Sfifo of (meta * 'a) Queue.t
  | Sdrr of 'a drr_state
  | Sprio of (meta * 'a) Queue.t array
  | Swfq of { heap : 'a Heap.t; finishes : (int, float) Hashtbl.t; mutable vnow : float }

type 'a t = {
  policy : policy;
  mutable count : int;
  state : 'a state;
  mutable sink : Obs.sink;
  mutable track : int;
}

let set_sink t sink ~track =
  t.sink <- sink;
  t.track <- track

let create policy =
  let state =
    match policy with
    | Fifo -> Sfifo (Queue.create ())
    | Drr { quantum } ->
      if quantum <= 0 then invalid_arg "Sched.create: quantum must be positive";
      Sdrr { queues = Hashtbl.create 16; rotation = []; deficits = Hashtbl.create 16; quantum }
    | Priority { levels } ->
      if levels <= 0 then invalid_arg "Sched.create: need at least one priority level";
      Sprio (Array.init levels (fun _ -> Queue.create ()))
    | Wfq -> Swfq { heap = Heap.create (); finishes = Hashtbl.create 16; vnow = 0. }
  in
  { policy; count = 0; state; sink = Obs.null; track = 0 }

let policy t = t.policy
let length t = t.count
let is_empty t = t.count = 0

let enqueue t meta x =
  t.count <- t.count + 1;
  match t.state with
  | Sfifo q -> Queue.push (meta, x) q
  | Sdrr s -> begin
    match Hashtbl.find_opt s.queues meta.flow with
    | Some q -> Queue.push (meta, x) q
    | None ->
      let q = Queue.create () in
      Queue.push (meta, x) q;
      Hashtbl.add s.queues meta.flow q;
      Hashtbl.replace s.deficits meta.flow 0;
      s.rotation <- s.rotation @ [ meta.flow ]
  end
  | Sprio qs ->
    let level = max 0 (min (Array.length qs - 1) meta.level) in
    Queue.push (meta, x) qs.(level)
  | Swfq s ->
    let weight = max 1 meta.weight in
    let last = Option.value ~default:0. (Hashtbl.find_opt s.finishes meta.flow) in
    let start = Float.max s.vnow last in
    let finish = start +. (float_of_int meta.bytes /. float_of_int weight) in
    Hashtbl.replace s.finishes meta.flow finish;
    Heap.push s.heap finish x

let dequeue t =
  if t.count = 0 then None
  else begin
    t.count <- t.count - 1;
    match t.state with
    | Sfifo q -> Some (snd (Queue.pop q))
    | Sprio qs ->
      let rec go i = if Queue.is_empty qs.(i) then go (i + 1) else snd (Queue.pop qs.(i)) in
      Some (go 0)
    | Swfq s -> begin
      match Heap.pop s.heap with
      | Some (finish, x) ->
        s.vnow <- finish;
        Some x
      | None -> None
    end
    | Sdrr s ->
      (* Visit flows round-robin; a flow whose head exceeds its deficit
         gets a quantum and goes to the back of the rotation. *)
      let rec go () =
        match s.rotation with
        | [] -> None
        | flow :: rest -> begin
          match Hashtbl.find_opt s.queues flow with
          | None ->
            s.rotation <- rest;
            go ()
          | Some q when Queue.is_empty q ->
            Hashtbl.remove s.queues flow;
            Hashtbl.remove s.deficits flow;
            s.rotation <- rest;
            go ()
          | Some q ->
            let meta, _ = Queue.peek q in
            let deficit = Option.value ~default:0 (Hashtbl.find_opt s.deficits flow) in
            if deficit >= meta.bytes then begin
              Hashtbl.replace s.deficits flow (deficit - meta.bytes);
              let _, x = Queue.pop q in
              if Queue.is_empty q then begin
                Hashtbl.remove s.queues flow;
                Hashtbl.remove s.deficits flow;
                s.rotation <- rest
              end;
              Some x
            end
            else begin
              (* Quantum switch: the flow's deficit refills and service
                 rotates to the next flow. *)
              Hashtbl.replace s.deficits flow (deficit + s.quantum);
              s.rotation <- rest @ [ flow ];
              Obs.count t.sink Obs.Sched_switch;
              Obs.instant t.sink ~ts:(Obs.seq t.sink) ~track:t.track Obs.Sched "drr_quantum"
                ~arg:flow;
              go ()
            end
        end
      in
      go ()
  end

let drain t =
  let rec go acc = match dequeue t with None -> List.rev acc | Some x -> go (x :: acc) in
  go []

let iter f t =
  match t.state with
  | Sfifo q -> Queue.iter (fun (_, x) -> f x) q
  | Sprio qs -> Array.iter (Queue.iter (fun (_, x) -> f x)) qs
  | Sdrr s ->
    (* Walk the rotation list, not [Hashtbl.iter]: every live flow is in
       the rotation exactly once (enqueue appends on queue creation,
       dequeue removes queue and rotation entry together), so this visits
       the same elements — but in the deterministic round-robin order.
       [Pktio.release] frees queued buffers through this iterator, and a
       hash-order walk would make the free order (and thus the allocator
       state and the trace) vary across OCaml versions. *)
    List.iter
      (fun flow ->
        match Hashtbl.find_opt s.queues flow with
        | None -> ()
        | Some q -> Queue.iter (fun (_, x) -> f x) q)
      s.rotation
  | Swfq s -> Heap.iter f s.heap

(* ---- two-stage hierarchical transmit scheduler ---------------------- *)

module Hier = struct
  (* Aliases to the single-stage scheduler above, captured before this
     module shadows the names with its own. *)
  let s_create = create
  let s_enqueue = enqueue
  let s_dequeue = dequeue
  let s_is_empty = is_empty
  let s_length = length
  let s_iter = iter

  type 'a klass = {
    mutable k_weight : int;
    k_inner : (int * 'a) t; (* stage-2 scheduler; items tagged with bytes *)
    mutable k_deficit : int;
    mutable k_active : bool; (* present in the rotation queue *)
  }

  type nonrec 'a t = {
    quantum : int;
    classes : (int, 'a klass) Hashtbl.t;
    rotation : int Queue.t;
    mutable count : int;
    mutable rounds : int;
    mutable sink : Obs.sink;
    mutable track : int;
  }

  (* Stage 2: per-flow DRR inside each class. *)
  let inner_policy = Drr { quantum = 1024 }

  let create ~quantum () =
    if quantum <= 0 then invalid_arg "Sched.Hier.create: quantum must be positive";
    {
      quantum;
      classes = Hashtbl.create 64;
      rotation = Queue.create ();
      count = 0;
      rounds = 0;
      sink = Obs.null;
      track = 0;
    }

  let set_sink t sink ~track =
    t.sink <- sink;
    t.track <- track

  let klass t cls =
    match Hashtbl.find_opt t.classes cls with
    | Some k -> k
    | None ->
      let k = { k_weight = 1; k_inner = s_create inner_policy; k_deficit = 0; k_active = false } in
      Hashtbl.add t.classes cls k;
      k

  let set_class t ~cls ~weight =
    if weight < 1 then invalid_arg "Sched.Hier.set_class: weight must be >= 1";
    (klass t cls).k_weight <- weight

  let weight_of t ~cls =
    match Hashtbl.find_opt t.classes cls with Some k -> Some k.k_weight | None -> None

  let enqueue t ~cls meta x =
    let k = klass t cls in
    s_enqueue k.k_inner meta (meta.bytes, x);
    t.count <- t.count + 1;
    if not k.k_active then begin
      k.k_active <- true;
      k.k_deficit <- 0;
      Queue.push cls t.rotation
    end

  let rec service t =
    if Queue.is_empty t.rotation then None
    else begin
      let cls = Queue.peek t.rotation in
      match Hashtbl.find_opt t.classes cls with
      | None ->
        ignore (Queue.pop t.rotation);
        service t
      | Some k ->
        if s_is_empty k.k_inner then begin
          ignore (Queue.pop t.rotation);
          k.k_active <- false;
          (* An idle class forfeits leftover credit: banking deficit across
             idle periods would let a bursty VF later starve the rest. *)
          k.k_deficit <- 0;
          service t
        end
        else if k.k_deficit > 0 then begin
          match s_dequeue k.k_inner with
          | None -> assert false
          | Some (bytes, x) ->
            k.k_deficit <- k.k_deficit - bytes;
            t.count <- t.count - 1;
            if s_is_empty k.k_inner then begin
              ignore (Queue.pop t.rotation);
              k.k_active <- false;
              k.k_deficit <- 0
            end
            else if k.k_deficit <= 0 then begin
              ignore (Queue.pop t.rotation);
              Queue.push cls t.rotation
            end;
            Some (cls, x)
        end
        else begin
          (* One refill per visit, then rotate if still in debt. *)
          k.k_deficit <- k.k_deficit + (t.quantum * k.k_weight);
          t.rounds <- t.rounds + 1;
          Obs.count t.sink Obs.Sched_switch;
          Obs.instant t.sink ~ts:(Obs.seq t.sink) ~track:t.track Obs.Sched "wrr_quantum" ~arg:cls;
          if k.k_deficit <= 0 then begin
            ignore (Queue.pop t.rotation);
            Queue.push cls t.rotation
          end;
          service t
        end
    end

  let dequeue t = if t.count = 0 then None else service t
  let length t = t.count
  let is_empty t = t.count = 0

  let class_length t ~cls =
    match Hashtbl.find_opt t.classes cls with Some k -> s_length k.k_inner | None -> 0

  let rounds t = t.rounds

  let drain t =
    let rec go acc = match dequeue t with None -> List.rev acc | Some cx -> go (cx :: acc) in
    go []

  let iter f t =
    (* Stage-1 rotation order, then the inner scheduler's own walk —
       deterministic for the same reason the single-stage DRR walk is. *)
    Queue.iter
      (fun cls ->
        match Hashtbl.find_opt t.classes cls with
        | None -> ()
        | Some k -> s_iter (fun (_, x) -> f cls x) k.k_inner)
      t.rotation

  let remove_class t ~cls =
    match Hashtbl.find_opt t.classes cls with
    | None -> []
    | Some k ->
      let dropped = ref [] in
      s_iter (fun (_, x) -> dropped := x :: !dropped) k.k_inner;
      t.count <- t.count - s_length k.k_inner;
      Hashtbl.remove t.classes cls;
      (* Purge the rotation queue without disturbing relative order. *)
      let keep = Queue.create () in
      Queue.iter (fun c -> if c <> cls then Queue.push c keep) t.rotation;
      Queue.clear t.rotation;
      Queue.transfer keep t.rotation;
      List.rev !dropped
end
