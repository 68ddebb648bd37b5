let page_size = Nicsim.Physmem.page_size

type host = { mem : Nicsim.Physmem.t; epc_base : int; epc_len : int; mutable epc_next : int }

type t = {
  host : host;
  base : int; (* this enclave's EPC slice base *)
  mutable pages : int;
  mutable meas : Crypto.Sha256.ctx option; (* open while building *)
  mutable digest : string option; (* sealed at init *)
}

let make_host ~mem_bytes ~epc_bytes =
  if epc_bytes <= 0 || epc_bytes >= mem_bytes then invalid_arg "Enclave.make_host: bad EPC size";
  if mem_bytes land (page_size - 1) <> 0 || epc_bytes land (page_size - 1) <> 0 then
    invalid_arg "Enclave.make_host: sizes must be page-aligned";
  let mem = Nicsim.Physmem.create ~size:mem_bytes in
  { mem; epc_base = mem_bytes - epc_bytes; epc_len = epc_bytes; epc_next = mem_bytes - epc_bytes }

let in_epc host pos = pos >= host.epc_base && pos < host.epc_base + host.epc_len

(* EPC slice allocation is a simple bump over the host's EPC range;
   add_page advances the cursor. *)
let create host = { host; base = host.epc_next; pages = 0; meas = Some (Crypto.Sha256.init ()); digest = None }

let initialized t = t.digest <> None

let add_page t data =
  if String.length data > page_size then Error "page content exceeds one page"
  else begin
    match t.meas with
    | None -> Error "enclave already initialized"
    | Some ctx ->
      let pos = t.base + (t.pages * page_size) in
      if pos + page_size > t.host.epc_base + t.host.epc_len then Error "EPC exhausted"
      else begin
        Nicsim.Physmem.write_bytes t.host.mem ~pos data;
        Crypto.Sha256.feed ctx (Printf.sprintf "page:%d:" t.pages);
        Crypto.Sha256.feed ctx data;
        t.pages <- t.pages + 1;
        t.host.epc_next <- pos + page_size;
        Ok ()
      end
  end

let init t =
  match t.meas with
  | None -> Error "already initialized"
  | Some ctx ->
    let d = Crypto.Sha256.finalize ctx in
    t.meas <- None;
    t.digest <- Some d;
    Ok d

(* Host-OS view: EPC reads abort (0xFF), writes are silently dropped —
   the SGX memory-encryption-engine behaviour as software sees it. *)
let os_read host ~pos ~len =
  String.init len (fun i ->
      let p = pos + i in
      if in_epc host p then '\xFF' else Char.chr (Nicsim.Physmem.read_u8 host.mem p))

let os_write host ~pos data =
  String.iteri
    (fun i c ->
      let p = pos + i in
      if not (in_epc host p) then Nicsim.Physmem.write_u8 host.mem p (Char.code c))
    data

let enter t f =
  if not (initialized t) then Error "enclave not initialized"
  else begin
    let limit = t.pages * page_size in
    let read ~off ~len =
      if off < 0 || off + len > limit then invalid_arg "Enclave: read outside enclave memory";
      Nicsim.Physmem.read_bytes t.host.mem ~pos:(t.base + off) ~len
    in
    let write ~off data =
      if off < 0 || off + String.length data > limit then invalid_arg "Enclave: write outside enclave memory";
      Nicsim.Physmem.write_bytes t.host.mem ~pos:(t.base + off) data
    in
    Ok (f ~read ~write)
  end

let dma_allowed host ~pos ~len =
  let rec ok i = i >= len || ((not (in_epc host (pos + i))) && ok (i + page_size)) in
  (not (in_epc host (pos + len - 1))) && ok 0
