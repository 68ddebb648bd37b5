open Nicsim

(* Re-exported so library users reach the shared two-tenant setup as
   [Attacks.Scenario]. *)
module Scenario = Scenario
module Safebricks = Safebricks
module Replays = Replays

type outcome = { mode : Machine.mode; succeeded : bool; detail : string }

let pp_outcome fmt o =
  Format.fprintf fmt "[%s] %s: %s" (Machine.mode_name o.mode)
    (if o.succeeded then "ATTACK SUCCEEDED" else "blocked")
    o.detail

let ( let* ) = Result.bind

(* Walk the allocator's DRAM metadata *as the attacker*, returning the
   victim's live buffers. Every byte goes through the machine's access
   checks, so on S-NIC the very first read faults. *)
let scan_metadata (s : Scenario.t) =
  let m = s.machine in
  let atk = Scenario.as_attacker s in
  let base = Alloc.metadata_base (Machine.alloc m) in
  let* magic = Machine.load_bytes m atk (Machine.Phys base) ~len:8 in
  let* () =
    if String.equal magic Alloc.magic then Ok ()
    else Error (Machine.Denied { principal = atk; addr = base; reason = "allocator magic not found" })
  in
  let* count = Machine.load_u64 m atk (Machine.Phys (base + 8)) in
  let victim_code = Scenario.victim_id + 1 in
  let rec walk i acc =
    if i >= count then Ok (List.rev acc)
    else begin
      let d = base + 16 + (i * Alloc.desc_size) in
      let* owner = Machine.load_u64 m atk (Machine.Phys d) in
      let* addr = Machine.load_u64 m atk (Machine.Phys (d + 8)) in
      let* len = Machine.load_u64 m atk (Machine.Phys (d + 16)) in
      let* in_use = Machine.load_u64 m atk (Machine.Phys (d + 24)) in
      walk (i + 1) (if owner = victim_code && in_use = 1 then (addr, len) :: acc else acc)
    end
  in
  walk 0 []

(* The victim's own packet read. In SE-UM without xkphys a function
   cannot touch physical addresses itself and asks the kernel to copy the
   packet (the syscall configuration of §3.2); everywhere else it reads
   its buffer directly. *)
let victim_read_frame (s : Scenario.t) ~addr ~len =
  let m = s.machine in
  match Machine.load_bytes m (Scenario.as_victim s) (Machine.Phys addr) ~len with
  | Ok frame -> frame
  | Error _ -> begin
    match Machine.load_bytes m Machine.Os (Machine.Phys addr) ~len with
    | Ok frame -> frame
    | Error f -> failwith ("victim cannot read its own packet: " ^ Machine.fault_to_string f)
  end

let test_packet () =
  Net.Packet.make
    ~src_ip:(Net.Ipv4_addr.of_string "10.1.1.1")
    ~dst_ip:(Net.Ipv4_addr.of_string "198.51.100.7")
    ~proto:Net.Packet.Udp ~src_port:3333 ~dst_port:8080 "sensitive payload"

let packet_corruption mode =
  let s = Scenario.setup mode in
  let m = s.machine in
  (match Scenario.deliver_to_victim s (test_packet ()) with
  | Ok () -> ()
  | Error e -> failwith ("setup: " ^ e));
  (* Attacker: locate the victim's buffers and flip bytes inside the IP
     header region of each. Individual faults are tolerated — a real
     attacker just skips memory it cannot touch (e.g. BlueField's
     secure-world regions) and keeps going. *)
  let attack =
    let* buffers = scan_metadata s in
    let corrupted = ref 0 and last_fault = ref None in
    List.iter
      (fun (addr, _len) ->
        let res =
          let* v = Machine.load_u8 m (Scenario.as_attacker s) (Machine.Phys (addr + 30)) in
          let* () = Machine.store_u8 m (Scenario.as_attacker s) (Machine.Phys (addr + 30)) (v lxor 0xFF) in
          Ok ()
        in
        match res with Ok () -> incr corrupted | Error f -> last_fault := Some f)
      buffers;
    match (!corrupted, !last_fault) with
    | 0, Some f -> Error f
    | n, _ -> Ok n
  in
  (* Victim: process its packet, verifying checksums. *)
  let addr, len = Option.get (Pktio.rx_pop (Machine.pktio m) ~nf:Scenario.victim_id) in
  let frame = victim_read_frame s ~addr ~len in
  let victim_sees_corruption =
    match Net.Packet.parse (Bytes.of_string frame) with Ok _ -> false | Error _ -> true
  in
  match attack with
  | Ok n when victim_sees_corruption ->
    { mode; succeeded = true; detail = Printf.sprintf "corrupted headers in %d victim buffers; NAT output ruined" n }
  | Ok n ->
    { mode; succeeded = false; detail = Printf.sprintf "wrote %d buffers but victim packet survived (unexpected)" n }
  | Error f -> { mode; succeeded = false; detail = Machine.fault_to_string f }

(* Length-prefixed pattern marshalling, as a DPI engine's rule memory. *)
let marshal_patterns pats =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "%08d" (List.length pats));
  List.iter (fun p -> Buffer.add_string buf (Printf.sprintf "%08d%s" (String.length p) p)) pats;
  Buffer.contents buf

let unmarshal_patterns s =
  try
    let n = int_of_string (String.sub s 0 8) in
    let rec go off i acc =
      if i >= n then List.rev acc
      else begin
        let len = int_of_string (String.sub s off 8) in
        go (off + 8 + len) (i + 1) (String.sub s (off + 8) len :: acc)
      end
    in
    go 8 0 []
  with _ -> []

let ruleset_stealing mode =
  let s = Scenario.setup mode in
  let m = s.machine in
  let rng = Trace.Rng.create ~seed:0xA7 in
  let patterns = Nf.Rulegen.dpi_patterns rng ~n:40 in
  (* Victim installs its DPI ruleset in its private region, through its
     own TLB window (works in every mode). *)
  (match
     Machine.store_bytes m (Scenario.as_victim s) (Machine.Virt { core = 0; vaddr = 0x10000000 })
       (marshal_patterns patterns)
   with
  | Ok () -> ()
  | Error f -> failwith ("victim cannot install ruleset: " ^ Machine.fault_to_string f));
  (* Attacker: find the victim's region and exfiltrate it. *)
  let attack =
    let* buffers = scan_metadata s in
    let* region =
      match List.find_opt (fun (_, len) -> len >= s.victim_mem_len) buffers with
      | Some (addr, len) -> Ok (addr, len)
      | None -> Error (Machine.Denied { principal = Scenario.as_attacker s; addr = 0; reason = "region not found" })
    in
    let addr, _ = region in
    let* dump = Machine.load_bytes m (Scenario.as_attacker s) (Machine.Phys addr) ~len:8192 in
    Ok (unmarshal_patterns dump)
  in
  match attack with
  | Ok stolen ->
    let recovered = List.length (List.filter (fun p -> List.mem p patterns) stolen) in
    if 2 * recovered >= List.length patterns then
      {
        mode;
        succeeded = true;
        detail = Printf.sprintf "exfiltrated %d/%d DPI patterns verbatim" recovered (List.length patterns);
      }
    else { mode; succeeded = false; detail = Printf.sprintf "only %d patterns recovered" recovered }
  | Error f -> { mode; succeeded = false; detail = Machine.fault_to_string f }

let accel_hijack mode =
  let s = Scenario.setup mode in
  let m = s.machine in
  let mmio = Machine.accel_mmio_base m ~kind:Accel.Dpi ~cluster:s.victim_cluster in
  (* The victim registers its graph: graph pointer -> its own region.
     Where the victim cannot reach the registers itself (SE-UM syscall
     configuration, BlueField secure-only accelerators) the management
     software does it on its behalf. *)
  (match Machine.store_u64 m (Scenario.as_victim s) (Machine.Phys (mmio + Machine.mmio_reg_graph)) s.victim_mem with
  | Ok () -> ()
  | Error _ -> begin
    match Machine.store_u64 m Machine.Os (Machine.Phys (mmio + Machine.mmio_reg_graph)) s.victim_mem with
    | Ok () -> ()
    | Error f -> failwith ("victim cannot configure its cluster even via the OS: " ^ Machine.fault_to_string f)
  end);
  (* The attacker re-points it at memory it controls. *)
  let attack =
    Machine.store_u64 m (Scenario.as_attacker s) (Machine.Phys (mmio + Machine.mmio_reg_graph)) s.attacker_mem
  in
  let now_points_at = Physmem.read_u64 (Machine.mem m) (mmio + Machine.mmio_reg_graph) in
  match attack with
  | Ok () when now_points_at = s.attacker_mem ->
    {
      mode;
      succeeded = true;
      detail = "victim's vDPI now fetches its rule graph from attacker memory";
    }
  | Ok () -> { mode; succeeded = false; detail = "write landed but pointer unchanged (unexpected)" }
  | Error f -> { mode; succeeded = false; detail = Machine.fault_to_string f }

type dos_result = { policy : Bus.policy; alone_pps : float; under_attack_pps : float; retained : float }

let nic_hz = 1.2e9
let victim_ops_per_packet = 6
let victim_op_cost = 8
let attacker_op_cost = 64 (* a test_subsat-style locked read-modify-write *)

let run_dos policy ~with_attacker ~horizon =
  let bus = Bus.create ~policy ~clients:2 in
  let v_time = ref 0 and a_time = ref 0 in
  let packets = ref 0 and v_ops = ref 0 in
  while !v_time < horizon do
    (* The attacker floods: its next op is always pending. Issue strictly
       in time order so FCFS arbitration is faithful. *)
    if with_attacker && !a_time <= !v_time && !a_time < horizon then
      a_time := Bus.request bus ~client:1 ~now:!a_time ~cost:attacker_op_cost
    else begin
      v_time := Bus.request bus ~client:0 ~now:!v_time ~cost:victim_op_cost;
      incr v_ops;
      if !v_ops mod victim_ops_per_packet = 0 then incr packets
    end
  done;
  float_of_int !packets /. (float_of_int horizon /. nic_hz)

let bus_dos policy =
  let horizon = 2_000_000 in
  let alone_pps = run_dos policy ~with_attacker:false ~horizon in
  let under_attack_pps = run_dos policy ~with_attacker:true ~horizon in
  { policy; alone_pps; under_attack_pps; retained = under_attack_pps /. alone_pps }

let matrix () =
  List.map
    (fun mode -> (Machine.mode_name mode, packet_corruption mode, ruleset_stealing mode))
    Machine.all_modes

type covert_result = { policy : Bus.policy; bits : int; decoded : int; accuracy : float }

let bus_covert_channel policy =
  let bits = 64 in
  let window = 4_096 (* cycles per bit *) in
  let bus = Bus.create ~policy ~clients:2 in
  let rng = Trace.Rng.create ~seed:0xC0DE in
  let message = List.init bits (fun _ -> Trace.Rng.bool rng) in
  let s_time = ref 0 and r_time = ref 0 in
  let decoded = ref 0 in
  List.iter
    (fun bit ->
      let window_end = max !s_time !r_time + window in
      (* Sender: for a 1-bit, hammer the bus with long ops all window. *)
      if bit then
        while !s_time < window_end do
          s_time := Bus.request bus ~client:1 ~now:!s_time ~cost:64
        done
      else s_time := window_end;
      (* Receiver: issue a fixed burst of short ops and time it. *)
      let started = max !r_time (window_end - window) in
      r_time := started;
      for _ = 1 to 8 do
        r_time := Bus.request bus ~client:0 ~now:!r_time ~cost:8
      done;
      let elapsed = !r_time - started in
      (* Decode: above-threshold burst latency means "the sender was
         loud". The threshold is the uncontended burst cost plus slack. *)
      let guessed = elapsed > 8 * 8 * 4 in
      if guessed = bit then incr decoded;
      (* Re-align both parties at the window boundary. *)
      s_time := max !s_time window_end;
      r_time := max !r_time window_end)
    message;
  { policy; bits; decoded = !decoded; accuracy = float_of_int !decoded /. float_of_int bits }

type accel_probe_result = { shared : bool; idle_latency : int; busy_latency : int; distinguishable : bool }

let accel_contention ~shared =
  let measure victim_active =
    let accel = Accel.create ~kind:Accel.Dpi ~threads:32 ~cluster_size:(if shared then 32 else 16) in
    (* The victim saturates its threads (commodity: the same shared pool;
       S-NIC: its own cluster). *)
    if victim_active then
      for _ = 1 to 64 do
        if shared then ignore (Accel.submit_any accel ~now:0 ~bytes:9000)
        else ignore (Accel.submit accel ~cluster:1 ~now:0 ~bytes:9000)
      done;
    (* The attacker probes with one small request at t=0. *)
    let done_at =
      if shared then Accel.submit_any accel ~now:0 ~bytes:64 else Accel.submit accel ~cluster:0 ~now:0 ~bytes:64
    in
    done_at
  in
  let idle_latency = measure false in
  let busy_latency = measure true in
  { shared; idle_latency; busy_latency; distinguishable = busy_latency > idle_latency }
