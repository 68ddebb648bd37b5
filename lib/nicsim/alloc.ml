type t = {
  mem : Physmem.t;
  base : int;
  heap_base : int;
  heap_size : int;
  max_entries : int;
  mutable bump : int; (* next free heap offset *)
}

let magic = "SNICALOC"
let desc_size = 32
let header_size = 16

let metadata_base t = t.base

let owner_code = function Physmem.Nic_os -> 0 | Physmem.Nf k -> k + 1 | Physmem.Free -> invalid_arg "Alloc: Free owner"

let init mem ~base ~heap_base ~heap_size ~max_entries =
  let meta_len = header_size + (max_entries * desc_size) in
  Physmem.write_bytes mem ~pos:base magic;
  Physmem.write_u64 mem (base + 8) 0;
  let page = Physmem.page_size in
  let align v = (v + page - 1) land lnot (page - 1) in
  Physmem.set_owner mem ~pos:(base land lnot (page - 1)) ~len:(align meta_len + page) Physmem.Nic_os;
  { mem; base; heap_base; heap_size; max_entries; bump = 0 }

let entry_count t = Physmem.read_u64 t.mem (t.base + 8)
let set_entry_count t n = Physmem.write_u64 t.mem (t.base + 8) n
let desc_addr t i = t.base + header_size + (i * desc_size)

let read_desc t i =
  let d = desc_addr t i in
  ( Physmem.read_u64 t.mem d,
    Physmem.read_u64 t.mem (d + 8),
    Physmem.read_u64 t.mem (d + 16),
    Physmem.read_u64 t.mem (d + 24) )

let write_desc t i ~owner ~addr ~len ~in_use =
  let d = desc_addr t i in
  Physmem.write_u64 t.mem d owner;
  Physmem.write_u64 t.mem (d + 8) addr;
  Physmem.write_u64 t.mem (d + 16) len;
  Physmem.write_u64 t.mem (d + 24) (if in_use then 1 else 0)

let page_align v = (v + Physmem.page_size - 1) land lnot (Physmem.page_size - 1)

let alloc t ?(align = Physmem.page_size) ~owner len =
  if len <= 0 then invalid_arg "Alloc.alloc: non-positive length";
  if align <= 0 || align land (align - 1) <> 0 then invalid_arg "Alloc.alloc: alignment must be a power of two";
  let align = max align Physmem.page_size in
  let alen = page_align len in
  let n = entry_count t in
  (* Reuse a free slot of sufficient size and alignment first, else bump. *)
  let rec find_slot i =
    if i >= n then None
    else begin
      let _, addr, slot_len, in_use = read_desc t i in
      if in_use = 0 && slot_len >= alen && addr land (align - 1) = 0 then Some (i, addr, slot_len)
      else find_slot (i + 1)
    end
  in
  let slot =
    match find_slot 0 with
    (* Reuse keeps the slot's full extent: shrinking it would orphan the
       tail bytes forever. *)
    | Some (i, addr, slot_len) -> Some (i, addr, slot_len)
    | None ->
      let start = (t.heap_base + t.bump + align - 1) land lnot (align - 1) in
      let off = start - t.heap_base in
      if off + alen > t.heap_size || n >= t.max_entries then None
      else begin
        t.bump <- off + alen;
        set_entry_count t (n + 1);
        Some (n, start, alen)
      end
  in
  match slot with
  | None -> None
  | Some (i, addr, alen) ->
    write_desc t i ~owner:(owner_code owner) ~addr ~len:alen ~in_use:true;
    Physmem.set_owner t.mem ~pos:addr ~len:alen owner;
    Some addr

let free t addr =
  let n = entry_count t in
  let rec go i =
    if i >= n then invalid_arg "Alloc.free: unknown address"
    else begin
      let owner, a, len, in_use = read_desc t i in
      if a = addr && in_use = 1 then begin
        write_desc t i ~owner ~addr:a ~len ~in_use:false;
        Physmem.set_owner t.mem ~pos:a ~len Physmem.Free
      end
      else go (i + 1)
    end
  in
  go 0

let live t =
  let n = entry_count t in
  let rec go i acc =
    if i >= n then List.rev acc
    else begin
      let owner, addr, len, in_use = read_desc t i in
      if in_use = 1 then begin
        let o = if owner = 0 then Physmem.Nic_os else Physmem.Nf (owner - 1) in
        go (i + 1) ((o, addr, len) :: acc)
      end
      else go (i + 1) acc
    end
  in
  go 0 []
