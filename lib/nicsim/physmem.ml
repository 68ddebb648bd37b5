type owner = Free | Nic_os | Nf of int

let page_bits = 12
let page_size = 1 lsl page_bits

type t = {
  size : int;
  pages : (int, Bytes.t) Hashtbl.t; (* page index -> 4 KB backing *)
  owners : (int, owner) Hashtbl.t; (* page index -> owner; absent = Free *)
  mutable resolutions : int; (* page-table lookups served (bench counter) *)
}

let create ~size =
  if size <= 0 || size land (page_size - 1) <> 0 then invalid_arg "Physmem.create: size must be page-aligned";
  { size; pages = Hashtbl.create 4096; owners = Hashtbl.create 4096; resolutions = 0 }

let resolutions t = t.resolutions

(* [pos + len > t.size] wraps to a negative number when [len] is near
   max_int — exactly the hostile descriptor lengths the §3.3 attack
   replays construct — so the bound is checked without the addition. *)
let check t pos len =
  if pos < 0 || len < 0 || pos > t.size || len > t.size - pos then
    invalid_arg
      (if pos >= 0 && len >= 0 && pos <= max_int - len then
         Printf.sprintf "Physmem: access [%#x, %#x) outside DRAM of %#x bytes" pos (pos + len) t.size
       else Printf.sprintf "Physmem: access at %#x of length %#x overflows the address space" pos len)

let find_page t idx =
  t.resolutions <- t.resolutions + 1;
  Hashtbl.find_opt t.pages idx

let page t idx =
  t.resolutions <- t.resolutions + 1;
  match Hashtbl.find_opt t.pages idx with
  | Some b -> b
  | None ->
    let b = Bytes.make page_size '\000' in
    Hashtbl.add t.pages idx b;
    b

let read_u8 t pos =
  check t pos 1;
  match find_page t (pos lsr page_bits) with
  | None -> 0
  | Some b -> Char.code (Bytes.get b (pos land (page_size - 1)))

let write_u8 t pos v =
  check t pos 1;
  Bytes.set (page t (pos lsr page_bits)) (pos land (page_size - 1)) (Char.chr (v land 0xff))

(* DRAM rot primitive for fault injection: flips one bit in place,
   bypassing ownership — exactly what a cosmic ray does. *)
let flip_bit t ~pos ~bit =
  if bit < 0 || bit > 7 then invalid_arg "Physmem.flip_bit: bit must be in 0..7";
  write_u8 t pos (read_u8 t pos lxor (1 lsl bit))

(* The walker behind every bulk operation: visit each 4 KB page covering
   [pos, pos+len) exactly once, so an N-byte access costs O(N/4096) page
   resolutions instead of O(N) hash lookups. [f] receives the page
   index, the offset within that page, the offset within the caller's
   buffer, and the chunk length. Callers must [check] first. *)
let iter_chunks ~pos ~len f =
  let i = ref pos in
  while !i < pos + len do
    let page_off = !i land (page_size - 1) in
    let n = min (page_size - page_off) (pos + len - !i) in
    f (!i lsr page_bits) ~page_off ~buf_off:(!i - pos) ~n;
    i := !i + n
  done

let check_buf fn buf ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length buf - len then
    invalid_arg (Printf.sprintf "Physmem.%s: range [%d, %d) outside buffer of %d bytes" fn off (off + len) (Bytes.length buf))

(* Sparse-page invariant: a page absent from the table reads as zeroes
   and is materialized only by a write, so bulk reads of never-written
   ranges fill from the implicit zero page without allocating it. *)
let blit_to_bytes t ~pos buf ~off ~len =
  check t pos len;
  check_buf "blit_to_bytes" buf ~off ~len;
  iter_chunks ~pos ~len (fun idx ~page_off ~buf_off ~n ->
      match find_page t idx with
      | None -> Bytes.fill buf (off + buf_off) n '\000'
      | Some b -> Bytes.blit b page_off buf (off + buf_off) n)

let blit_from_bytes t ~pos buf ~off ~len =
  check t pos len;
  check_buf "blit_from_bytes" buf ~off ~len;
  iter_chunks ~pos ~len (fun idx ~page_off ~buf_off ~n -> Bytes.blit buf (off + buf_off) (page t idx) page_off n)

let zero_range t ~pos ~len =
  check t pos len;
  (* Drop fully covered pages (restoring the sparse zero page); clear
     partial edges in place. *)
  iter_chunks ~pos ~len (fun idx ~page_off ~buf_off:_ ~n ->
      if page_off = 0 && n = page_size then Hashtbl.remove t.pages idx
      else begin
        match find_page t idx with
        | None -> ()
        | Some b -> Bytes.fill b page_off n '\000'
      end)

let fill t ~pos ~len c =
  if c = '\000' then zero_range t ~pos ~len
  else begin
    check t pos len;
    iter_chunks ~pos ~len (fun idx ~page_off ~buf_off:_ ~n -> Bytes.fill (page t idx) page_off n c)
  end

let read_u64 t pos =
  check t pos 8;
  let off = pos land (page_size - 1) in
  if off <= page_size - 8 then begin
    (* Common case: the word sits inside one page — one resolution.
       [to_int] keeps the low 63 bits, matching the legacy byte-at-a-time
       assembly in OCaml int arithmetic. *)
    match find_page t (pos lsr page_bits) with
    | None -> 0
    | Some b -> Int64.to_int (Bytes.get_int64_le b off)
  end
  else begin
    let v = ref 0 in
    for i = 7 downto 0 do
      v := (!v lsl 8) lor read_u8 t (pos + i)
    done;
    !v
  end

let write_u64 t pos v =
  check t pos 8;
  let off = pos land (page_size - 1) in
  if off <= page_size - 8 then
    (* Mask to 63 bits so byte 7 matches the legacy [(v lsr 56) land 0xff]
       encoding (lsr on a 63-bit int never produces the sign bit). *)
    Bytes.set_int64_le (page t (pos lsr page_bits)) off (Int64.logand (Int64.of_int v) 0x7FFF_FFFF_FFFF_FFFFL)
  else
    for i = 0 to 7 do
      write_u8 t (pos + i) ((v lsr (8 * i)) land 0xff)
    done

let read_bytes t ~pos ~len =
  check t pos len;
  let buf = Bytes.create len in
  blit_to_bytes t ~pos buf ~off:0 ~len;
  Bytes.unsafe_to_string buf

let write_bytes t ~pos s =
  let len = String.length s in
  check t pos len;
  iter_chunks ~pos ~len (fun idx ~page_off ~buf_off ~n -> Bytes.blit_string s buf_off (page t idx) page_off n)

(* Scrub verification walks pages, not bytes: absent pages are zero by
   the sparse invariant, present pages are scanned within their backing. *)
let is_zero t ~pos ~len =
  if len = 0 then true
  else begin
    check t pos len;
    let ok = ref true in
    iter_chunks ~pos ~len (fun idx ~page_off ~buf_off:_ ~n ->
        if !ok then begin
          match find_page t idx with
          | None -> ()
          | Some b ->
            for i = page_off to page_off + n - 1 do
              if Bytes.unsafe_get b i <> '\000' then ok := false
            done
        end);
    !ok
  end

let owner_of t pos =
  check t pos 1;
  Option.value ~default:Free (Hashtbl.find_opt t.owners (pos lsr page_bits))

let owner_equal a b = a = b

let set_owner t ~pos ~len owner =
  check t pos len;
  if pos land (page_size - 1) <> 0 || len land (page_size - 1) <> 0 then
    invalid_arg "Physmem.set_owner: range must be page-aligned";
  for idx = pos lsr page_bits to ((pos + len) lsr page_bits) - 1 do
    match owner with Free -> Hashtbl.remove t.owners idx | o -> Hashtbl.replace t.owners idx o
  done

(* Sorted, because [Hashtbl.fold] visits in hash order, which differs
   across OCaml versions and hash seeds: scrub/verify and teardown walk
   this list, and an unsorted walk would be nondeterministic. *)
let pages_owned t owner =
  Hashtbl.fold (fun idx o acc -> if o = owner then idx :: acc else acc) t.owners [] |> List.sort compare

let owned_ranges t owner =
  let idxs = pages_owned t owner in
  (* Coalesce consecutive page indices into runs. *)
  let rec runs acc = function
    | [] -> List.rev acc
    | idx :: rest -> begin
      match acc with
      | (start, len) :: tl when start + len = idx lsl page_bits -> runs ((start, len + page_size) :: tl) rest
      | _ -> runs ((idx lsl page_bits, page_size) :: acc) rest
    end
  in
  runs [] idxs

let pp_owner fmt = function
  | Free -> Format.pp_print_string fmt "free"
  | Nic_os -> Format.pp_print_string fmt "nic-os"
  | Nf id -> Format.fprintf fmt "nf-%d" id
