type entry = { vbase : int; pbase : int; size : int; writable : bool }
type access = Read | Write

type t = {
  mutable entries : entry list;
  mutable locked : bool;
  capacity : int;
  mutable sink : Obs.sink;
  mutable track : int;
}

let create ?(capacity = 512) () =
  { entries = []; locked = false; capacity; sink = Obs.null; track = 0 }

let set_sink t sink ~track =
  t.sink <- sink;
  t.track <- track

let is_pow2 n = n > 0 && n land (n - 1) = 0

let overlaps a b =
  let a_end = a.vbase + a.size and b_end = b.vbase + b.size in
  a.vbase < b_end && b.vbase < a_end

let install t e =
  if t.locked then invalid_arg "Tlb.install: TLB is locked";
  if not (is_pow2 e.size) then invalid_arg "Tlb.install: size must be a power of two";
  if e.vbase land (e.size - 1) <> 0 || e.pbase land (e.size - 1) <> 0 then
    invalid_arg "Tlb.install: base not aligned to size";
  if List.exists (overlaps e) t.entries then invalid_arg "Tlb.install: overlapping mapping";
  if List.length t.entries >= t.capacity then invalid_arg "Tlb.install: TLB full";
  t.entries <- e :: t.entries

let page = 4096

let map_region t ~vbase ~pbase ~len ~writable =
  if vbase land (page - 1) <> 0 || pbase land (page - 1) <> 0 || len land (page - 1) <> 0 || len <= 0 then
    invalid_arg "Tlb.map_region: arguments must be page-aligned";
  let pow2_floor n =
    let rec go p = if p * 2 <= n then go (p * 2) else p in
    go 1
  in
  let align_of x = if x = 0 then max_int else x land (-x) in
  let rec go v p remaining count =
    if remaining = 0 then count
    else begin
      let size = min (min (align_of v) (align_of p)) (pow2_floor remaining) in
      install t { vbase = v; pbase = p; size; writable };
      go (v + size) (p + size) (remaining - size) (count + 1)
    end
  in
  go vbase pbase len 0

let lock t = t.locked <- true
let is_locked t = t.locked

exception Missed

(* Manual recursion instead of [List.find_opt] with a capturing closure:
   the hit path must not allocate beyond the returned option so the null
   sink keeps the hot path flat (asserted by test_obs). *)
let rec lookup vaddr entries =
  match entries with
  | [] -> raise_notrace Missed
  | e :: rest -> if vaddr >= e.vbase && vaddr < e.vbase + e.size then e else lookup vaddr rest

let miss t vaddr =
  Obs.count t.sink Obs.Tlb_miss;
  Obs.instant t.sink ~ts:(Obs.seq t.sink) ~track:t.track Obs.Tlb "tlb_miss" ~arg:vaddr;
  None

let translate t ~vaddr ~access =
  match lookup vaddr t.entries with
  | e ->
    if access = Read || e.writable then begin
      Obs.count t.sink Obs.Tlb_hit;
      Some (e.pbase + (vaddr - e.vbase))
    end
    else miss t vaddr
  | exception Missed -> miss t vaddr

(* Entries map contiguous windows, so one lookup answers for every byte
   up to the window's end: the bulk datapath translates once per entry
   run instead of once per byte. *)
let translate_run t ~vaddr ~len ~access =
  if len <= 0 then invalid_arg "Tlb.translate_run: length must be positive";
  match lookup vaddr t.entries with
  | e ->
    if access = Read || e.writable then begin
      Obs.count t.sink Obs.Tlb_hit;
      Some (e.pbase + (vaddr - e.vbase), min len (e.vbase + e.size - vaddr))
    end
    else miss t vaddr
  | exception Missed -> miss t vaddr

let entries t = t.entries
let mapped_bytes t = List.fold_left (fun acc e -> acc + e.size) 0 t.entries
