open Nicsim

type t = {
  instr : Instructions.t;
  vendor : Identity.vendor;
  mutable tx_seen : int; (* wire frames already parsed into [tx_parsed] *)
  mutable tx_parsed : Net.Packet.t list; (* the parseable ones, newest first *)
}

let boot_with ?vendor ?(serial = "0001") ?identity_seed config =
  let vendor = match vendor with Some v -> v | None -> Identity.make_vendor ~name:"Simulated NIC Vendor" () in
  let machine = Machine.create config in
  let identity = Identity.manufacture ?seed:identity_seed vendor ~serial in
  { instr = Instructions.create machine identity; vendor; tx_seen = 0; tx_parsed = [] }

let boot ?vendor ?serial ?identity_seed () =
  boot_with ?vendor ?serial ?identity_seed (Machine.default_config ~mode:Machine.Snic)

let instructions t = t.instr
let machine t = Instructions.machine t.instr
let vendor t = t.vendor

type create_error =
  | Stage_fault of Faults.fault_event (* the staging DMA hit an injected gray failure — retryable *)
  | Stage_failed of string (* resource exhaustion or window violation while staging *)
  | Launch_failed of string (* the trusted nf_launch instruction refused *)

let create_error_to_string = function
  | Stage_fault ev -> Printf.sprintf "image staging failed: %s" (Faults.event_to_string ev)
  | Stage_failed msg -> msg
  | Launch_failed msg -> msg

(* Wrap a control-plane call in a span on the machine's ctrl track;
   [ok] classifies the result so the closing event can carry success
   (arg=1) or failure (arg=0).  Timestamps are sequence numbers — the
   control plane has no cycle clock. *)
let ctrl_span m name ~ok f =
  let sink = Machine.sink m in
  Obs.span_begin sink ~ts:(Obs.seq sink) ~track:Machine.track_ctrl Obs.Ctrl name ~arg:0;
  let result = f () in
  Obs.span_end sink ~ts:(Obs.seq sink) ~track:Machine.track_ctrl Obs.Ctrl name
    ~arg:(if ok result then 1 else 0);
  result

let nf_create_body t (config : Instructions.launch_config) =
  let m = machine t in
  (* Stage the image through host memory and DMA, as the real management
     flow does (§4.1). The staging buffer is OS memory; nf_launch copies
     from it into the function's reservation. A gray failure here is
     survivable: an outright DMA error aborts the create (retryable), and
     a silent bit flip stages a corrupt image whose measurement the
     attestation handshake then rejects — it never runs attested. *)
  let staged =
    if String.length config.image = 0 then Ok config.image
    else begin
      let host = Dma.host_mem (Machine.dma m) in
      Physmem.write_bytes host ~pos:0 config.image;
      match Alloc.alloc (Machine.alloc m) ~owner:Physmem.Nic_os (String.length config.image) with
      | None -> Error (Stage_failed "cannot stage image: on-NIC RAM exhausted")
      | Some stage -> begin
        match
          Dma.transfer ~checked:false (Machine.dma m) ~bank:0 ~direction:Dma.To_nic ~nic_addr:stage ~host_addr:0
            ~len:(String.length config.image)
        with
        | Error e ->
          Alloc.free (Machine.alloc m) stage;
          (match e with
          | Dma.Fault ev -> Error (Stage_fault ev)
          | Dma.Violation msg -> Error (Stage_failed msg))
        | Ok () ->
          let image = Physmem.read_bytes (Machine.mem m) ~pos:stage ~len:(String.length config.image) in
          Alloc.free (Machine.alloc m) stage;
          Ok image
      end
    end
  in
  match staged with
  | Error e -> Error e
  | Ok image -> begin
    let cores =
      if config.cores <> [] then config.cores
      else begin
        match Machine.free_cores m with
        | [] -> []
        | c :: _ -> [ c ]
      end
    in
    match Instructions.nf_launch t.instr { config with cores; image } with
    | Ok (handle, _latency) -> Ok (Vnic.of_handle t.instr handle)
    | Error e -> Error (Launch_failed (Instructions.error_to_string e))
  end

let nf_create_r t config =
  ctrl_span (machine t) "nf_create" ~ok:Result.is_ok (fun () -> nf_create_body t config)

let nf_create t config = Result.map_error create_error_to_string (nf_create_r t config)

type destroy_error = Already_destroyed of int | Never_created of int | Destroy_failed of string

let destroy_error_to_string = function
  | Already_destroyed id -> Printf.sprintf "function %d was already destroyed" id
  | Never_created id -> Printf.sprintf "no function with id %d was ever created" id
  | Destroy_failed msg -> msg

let nf_destroy t ~id =
  ctrl_span (machine t) "nf_destroy" ~ok:Result.is_ok (fun () ->
      match Instructions.nf_teardown t.instr ~id with
      | Ok _ -> Ok ()
      | Error (Instructions.Function_destroyed id) -> Error (Already_destroyed id)
      | Error (Instructions.Unknown_function id) -> Error (Never_created id)
      | Error e -> Error (Destroy_failed (Instructions.error_to_string e)))

let inject t frame = Pktio.deliver (Machine.pktio (machine t)) frame
let inject_packet t pkt = inject t (Net.Packet.serialize pkt)
let inject_batch t frames = Pktio.deliver_batch (Machine.pktio (machine t)) frames

(* Each wire frame is parsed once, on the first call that finds it; the
   only per-call cost left is the oldest-first copy of the history. *)
let transmitted t =
  let fresh = Pktio.wire_since (Machine.pktio (machine t)) ~count:t.tx_seen in
  List.iter
    (fun frame -> match Net.Packet.parse frame with Ok pkt -> t.tx_parsed <- pkt :: t.tx_parsed | Error _ -> ())
    fresh;
  t.tx_seen <- t.tx_seen + List.length fresh;
  List.rev t.tx_parsed
