type mode = Liquidio_se_s | Liquidio_se_um of { nf_xkphys : bool } | Agilio | Bluefield | Snic

let mode_name = function
  | Liquidio_se_s -> "LiquidIO SE-S"
  | Liquidio_se_um { nf_xkphys } -> if nf_xkphys then "LiquidIO SE-UM (xkphys)" else "LiquidIO SE-UM"
  | Agilio -> "Agilio"
  | Bluefield -> "BlueField (TrustZone)"
  | Snic -> "S-NIC"

let all_modes =
  [ Liquidio_se_s; Liquidio_se_um { nf_xkphys = false }; Liquidio_se_um { nf_xkphys = true }; Agilio; Bluefield; Snic ]

let mode_id = function
  | Liquidio_se_s -> "se-s"
  | Liquidio_se_um { nf_xkphys = false } -> "se-um"
  | Liquidio_se_um { nf_xkphys = true } -> "se-um-xk"
  | Agilio -> "agilio"
  | Bluefield -> "bluefield"
  | Snic -> "snic"

let mode_of_id s = List.find_opt (fun m -> String.equal (mode_id m) s) all_modes

type principal = Os | Nf_code of int

type fault = Tlb_fault of int | Denied of { principal : principal; addr : int; reason : string }

let pp_principal fmt = function
  | Os -> Format.pp_print_string fmt "NIC OS"
  | Nf_code id -> Format.fprintf fmt "NF %d" id

let pp_fault fmt = function
  | Tlb_fault v -> Format.fprintf fmt "TLB fault at vaddr %#x" v
  | Denied { principal; addr; reason } -> Format.fprintf fmt "%a denied at %#x: %s" pp_principal principal addr reason

let fault_to_string f = Format.asprintf "%a" pp_fault f

type config = {
  mode : mode;
  cores : int;
  dram_bytes : int;
  l2 : Cache.t;
  bus : Bus.t;
  accels : Accel.t list;
  host_mem_bytes : int;
  rx_buffer_bytes : int;
  tx_buffer_bytes : int;
}

type t = {
  config : config;
  mem : Physmem.t;
  core_tlbs : Tlb.t array;
  core_owners : int option array;
  secure : (int, unit) Hashtbl.t; (* page idx -> BlueField secure world *)
  alloc : Alloc.t;
  pktio : Pktio.t;
  dma : Dma.t;
  mutable faults : Faults.t option;
  mutable sink : Obs.sink;
}

let default_config ~mode =
  {
    mode;
    cores = 16;
    dram_bytes = 1 lsl 30; (* 1 GB of simulated DRAM *)
    l2 = Cache.create ~sets:4096 ~ways:16 ~line_bits:6 ~mode:(if mode = Snic then Cache.Hard else Cache.Shared) ~domains:16;
    bus =
      Bus.create
        ~policy:(if mode = Snic then Bus.Temporal { epoch = 96; dead = 16 } else Bus.Free_for_all)
        ~clients:16;
    accels =
      [
        Accel.create ~kind:Accel.Dpi ~threads:64 ~cluster_size:16;
        Accel.create ~kind:Accel.Zip ~threads:64 ~cluster_size:16;
        Accel.create ~kind:Accel.Raid ~threads:64 ~cluster_size:16;
      ];
    host_mem_bytes = 1 lsl 28;
    rx_buffer_bytes = 2 lsl 20;
    tx_buffer_bytes = 2 lsl 20;
  }

let mmio_base = 0x80000
let mmio_reg_graph = 0
let mmio_reg_iq = 8

let create config =
  let mem = Physmem.create ~size:config.dram_bytes in
  (* Fixed layout: allocator metadata at 64 KB, accelerator MMIO pages at
     512 KB, heap in the upper half. *)
  let heap_base = config.dram_bytes / 2 in
  let alloc = Alloc.init mem ~base:0x10000 ~heap_base ~heap_size:(config.dram_bytes - heap_base) ~max_entries:4096 in
  (* One MMIO page per accelerator cluster, owned by the NIC OS until an
     nf_launch hands it to a function. *)
  List.iteri
    (fun ai accel ->
      for c = 0 to Accel.cluster_count accel - 1 do
        Physmem.set_owner mem
          ~pos:(mmio_base + (((ai * 64) + c) * Physmem.page_size))
          ~len:Physmem.page_size Physmem.Nic_os
      done)
    config.accels;
  let host_mem = Physmem.create ~size:config.host_mem_bytes in
  {
    config;
    mem;
    core_tlbs = Array.init config.cores (fun _ -> Tlb.create ~capacity:512 ());
    core_owners = Array.make config.cores None;
    secure = Hashtbl.create 64;
    alloc;
    pktio = Pktio.create mem alloc ~rx_buffer_bytes:config.rx_buffer_bytes ~tx_buffer_bytes:config.tx_buffer_bytes;
    dma = Dma.create ~nic_mem:mem ~host_mem ~banks:config.cores;
    faults = None;
    sink = Obs.null;
  }

(* One plan per machine: every device draws from the same seeded stream,
   so a seed reproduces the whole NIC's fault schedule. *)
let set_faults t f =
  t.faults <- Some f;
  Dma.set_faults t.dma f;
  Pktio.set_faults t.pktio f;
  Bus.set_faults t.config.bus f;
  List.iter (fun a -> Accel.set_faults a f) t.config.accels

let faults t = t.faults

(* Fixed track map within one machine's process lane (see
   OBSERVABILITY.md): 0 control plane, 1 L2, 2+core the core TLBs,
   100+client the bus, 200+bank the DMA banks, 300+ai*64+thread the
   accelerator threads, 900 the packet schedulers, 910 packet IO,
   920-922 the QoS arbiter's per-resource throttle lanes. *)
let track_ctrl = 0
let track_l2 = 1
let track_core_tlb core = 2 + core
let track_bus_base = 100
let track_dma_base = 200
let track_accel_base ai = 300 + (ai * 64)
let track_sched = 900
let track_pktio = 910

(* Like [set_faults], one sink per machine: every device records into the
   same stream, each on its own track. *)
let set_sink t sink =
  t.sink <- sink;
  Cache.set_sink t.config.l2 sink ~track:track_l2;
  Obs.name_track sink ~track:track_l2 "l2-cache";
  Obs.name_track sink ~track:track_ctrl "ctrl";
  Obs.name_track sink ~track:track_sched "sched";
  Obs.name_track sink ~track:track_pktio "pktio";
  Bus.set_sink t.config.bus sink ~track_base:track_bus_base;
  for c = 0 to Bus.clients t.config.bus - 1 do
    Obs.name_track sink ~track:(track_bus_base + c) (Printf.sprintf "bus-client%d" c)
  done;
  Dma.set_sink t.dma sink ~track_base:track_dma_base;
  for b = 0 to Dma.banks t.dma - 1 do
    Obs.name_track sink ~track:(track_dma_base + b) (Printf.sprintf "dma-bank%d" b)
  done;
  List.iteri (fun ai a -> Accel.set_sink a sink ~track_base:(track_accel_base ai)) t.config.accels;
  Pktio.set_sink t.pktio sink ~track:track_pktio;
  Array.iteri
    (fun core tlb ->
      Tlb.set_sink tlb sink ~track:(track_core_tlb core);
      Obs.name_track sink ~track:(track_core_tlb core) (Printf.sprintf "core%d-tlb" core))
    t.core_tlbs

let sink t = t.sink

let mode t = t.config.mode
let mem t = t.mem
let cores t = t.config.cores
let l2 t = t.config.l2
let bus t = t.config.bus
let alloc t = t.alloc
let pktio t = t.pktio
let dma t = t.dma

let accel t kind =
  match List.find_opt (fun a -> Accel.kind a = kind) t.config.accels with
  | Some a -> a
  | None -> invalid_arg ("Machine.accel: no such accelerator: " ^ Accel.kind_name kind)

let accel_mmio_base t ~kind ~cluster =
  let rec index i = function
    | [] -> invalid_arg ("Machine.accel_mmio_base: no such accelerator: " ^ Accel.kind_name kind)
    | a :: rest -> if Accel.kind a = kind then i else index (i + 1) rest
  in
  let ai = index 0 t.config.accels in
  if cluster < 0 || cluster >= Accel.cluster_count (accel t kind) then
    invalid_arg "Machine.accel_mmio_base: bad cluster";
  mmio_base + (((ai * 64) + cluster) * Physmem.page_size)

let bind_core t ~core ~nf =
  if core < 0 || core >= t.config.cores then invalid_arg "Machine.bind_core: bad core";
  match t.core_owners.(core) with
  | Some other when other <> nf -> invalid_arg (Printf.sprintf "Machine.bind_core: core %d is bound to NF %d" core other)
  | _ -> t.core_owners.(core) <- Some nf

let unbind_cores t ~nf =
  Array.iteri
    (fun i o ->
      if o = Some nf then begin
        t.core_owners.(i) <- None;
        let tlb = Tlb.create ~capacity:512 () in
        (* The fresh TLB keeps recording into the machine's sink. *)
        Tlb.set_sink tlb t.sink ~track:(track_core_tlb i);
        t.core_tlbs.(i) <- tlb;
        (* The core's DMA bank windows die with the binding. *)
        Dma.reset_bank t.dma ~bank:i
      end)
    t.core_owners

let core_tlb t ~core = t.core_tlbs.(core)
let core_owner t ~core = t.core_owners.(core)

let free_cores t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (if t.core_owners.(i) = None then i :: acc else acc) in
  go (t.config.cores - 1) []

let set_secure t ~pos ~len secure =
  let first = pos lsr Physmem.page_bits and last = (pos + len - 1) lsr Physmem.page_bits in
  for idx = first to last do
    if secure then Hashtbl.replace t.secure idx () else Hashtbl.remove t.secure idx
  done

let is_secure t addr = Hashtbl.mem t.secure (addr lsr Physmem.page_bits)

(* In S-NIC mode the denylist is exactly "pages owned by some NF": the
   nf_launch instruction moves pages into NF ownership and the hardware
   refuses OS accesses to them from that point on (§4.2). *)
let os_denied t addr =
  t.config.mode = Snic && (match Physmem.owner_of t.mem addr with Physmem.Nf _ -> true | _ -> false)

(* Read-only introspection for external checkers: ground truth, no
   policy, no mutation. *)
let page_owner t addr = Physmem.owner_of t.mem addr
let tlb_entries t ~core = Tlb.entries t.core_tlbs.(core)

type addressing = Virt of { core : int; vaddr : int } | Phys of int

(* The single policy decision point: may [principal] touch physical
   address [paddr]? [via_tlb] records whether the access arrived through
   a core TLB (already confined) or as a raw physical address. *)
let check_phys t principal paddr ~via_tlb =
  let deny reason = Error (Denied { principal; addr = paddr; reason }) in
  match (t.config.mode, principal) with
  | (Liquidio_se_s | Agilio), _ -> Ok paddr
  | Liquidio_se_um _, Os -> Ok paddr
  | Liquidio_se_um { nf_xkphys }, Nf_code _ ->
    if via_tlb || nf_xkphys then Ok paddr else deny "xkphys disabled for functions"
  | Bluefield, Os -> Ok paddr (* the secure-world OS sees everything *)
  | Bluefield, Nf_code id ->
    if via_tlb then Ok paddr
    else if is_secure t paddr then begin
      (* Normal-world code cannot touch secure memory, not even its own;
         its own accesses come through the TLB path. *)
      deny (Printf.sprintf "TrustZone: secure memory not accessible to normal world (NF %d)" id)
    end
    else Ok paddr
  | Snic, Os -> if os_denied t paddr then deny "memory denylist: page belongs to a launched NF" else Ok paddr
  | Snic, Nf_code id -> begin
    match Physmem.owner_of t.mem paddr with
    | Physmem.Nf owner when owner = id -> Ok paddr
    | owner ->
      deny
        (Format.asprintf "single-owner RAM: page belongs to %a, not NF %d" Physmem.pp_owner owner id)
  end

let resolve t principal addressing ~write =
  match addressing with
  | Phys paddr -> check_phys t principal paddr ~via_tlb:false
  | Virt { core; vaddr } -> begin
    (match principal with
    | Nf_code id when t.core_owners.(core) <> Some id ->
      invalid_arg (Printf.sprintf "Machine: NF %d is not bound to core %d" id core)
    | _ -> ());
    match Tlb.translate t.core_tlbs.(core) ~vaddr ~access:(if write then Tlb.Write else Tlb.Read) with
    | None -> Error (Tlb_fault vaddr)
    | Some paddr -> check_phys t principal paddr ~via_tlb:true
  end

let ( let* ) = Result.bind

let load_u8 t principal addressing =
  let* paddr = resolve t principal addressing ~write:false in
  Ok (Physmem.read_u8 t.mem paddr)

let store_u8 t principal addressing v =
  let* paddr = resolve t principal addressing ~write:true in
  Ok (Physmem.write_u8 t.mem paddr v)

let advance addressing off = match addressing with Phys p -> Phys (p + off) | Virt { core; vaddr } -> Virt { core; vaddr = vaddr + off }

let load_u64 t principal addressing =
  let* paddr = resolve t principal addressing ~write:false in
  let* _ = resolve t principal (advance addressing 7) ~write:false in
  Ok (Physmem.read_u64 t.mem paddr)

let store_u64 t principal addressing v =
  let* paddr = resolve t principal addressing ~write:true in
  let* _ = resolve t principal (advance addressing 7) ~write:true in
  Ok (Physmem.write_u64 t.mem paddr v)

(* Bulk path: every policy in [check_phys] is a function of the 4 KB
   frame alone (ownership, the denylist and the secure set are all
   page-granular), so checking one byte per page is exactly equivalent
   to checking every byte; and a TLB entry maps a contiguous window, so
   one [translate_run] per entry is exactly equivalent to per-byte
   translation, faulting at the same first unmapped/denied address.
   [f paddr ~off ~n] consumes each checked page-bounded chunk. *)
let fold_chunks t principal addressing ~len ~write ~f =
  let page_mask = Physmem.page_size - 1 in
  (* Walk [n] bytes of a physically contiguous run, one chunk per page. *)
  let rec pages ~via_tlb paddr ~off n =
    if n <= 0 then Ok ()
    else begin
      match check_phys t principal paddr ~via_tlb with
      | Error e -> Error e
      | Ok _ ->
        let chunk = min n (Physmem.page_size - (paddr land page_mask)) in
        f paddr ~off ~n:chunk;
        pages ~via_tlb (paddr + chunk) ~off:(off + chunk) (n - chunk)
    end
  in
  match addressing with
  | Phys paddr -> pages ~via_tlb:false paddr ~off:0 len
  | Virt { core; vaddr } ->
    (match principal with
    | Nf_code id when t.core_owners.(core) <> Some id ->
      invalid_arg (Printf.sprintf "Machine: NF %d is not bound to core %d" id core)
    | _ -> ());
    let access = if write then Tlb.Write else Tlb.Read in
    let rec runs off =
      if off >= len then Ok ()
      else begin
        match Tlb.translate_run t.core_tlbs.(core) ~vaddr:(vaddr + off) ~len:(len - off) ~access with
        | None -> Error (Tlb_fault (vaddr + off))
        | Some (paddr, n) ->
          let* () = pages ~via_tlb:true paddr ~off n in
          runs (off + n)
      end
    in
    runs 0

let load_bytes t principal addressing ~len =
  if len < 0 then invalid_arg "Machine.load_bytes";
  let buf = Bytes.create len in
  let* () =
    fold_chunks t principal addressing ~len ~write:false ~f:(fun paddr ~off ~n ->
        Physmem.blit_to_bytes t.mem ~pos:paddr buf ~off ~len:n)
  in
  Ok (Bytes.unsafe_to_string buf)

let store_bytes t principal addressing s =
  let buf = Bytes.unsafe_of_string s in
  (* Each page is checked immediately before its chunk is copied, so a
     denied page aborts with every prior page already written — the same
     partial-write frontier as the legacy per-byte loop, whose first
     faulting byte is always a page boundary. *)
  fold_chunks t principal addressing ~len:(String.length s) ~write:true ~f:(fun paddr ~off ~n ->
      Physmem.blit_from_bytes t.mem ~pos:paddr buf ~off ~len:n)
