open Nicsim

type outcome = {
  deployment : string;
  kernel_saw_plaintext : bool;
  kernel_tampered_input : bool;
  dma_into_protected_memory : bool;
}

let pp_outcome fmt o =
  Format.fprintf fmt "%-22s kernel reads packets: %-5b kernel tampers input: %-5b DMA into TEE: %b" o.deployment
    o.kernel_saw_plaintext o.kernel_tampered_input o.dma_into_protected_memory

let secret = "PATIENT RECORD #4411: diagnosis..."

let sensitive_packet () =
  Net.Packet.make
    ~src_ip:(Net.Ipv4_addr.of_string "10.0.0.1")
    ~dst_ip:(Net.Ipv4_addr.of_string "10.0.0.2")
    ~proto:Net.Packet.Udp ~src_port:443 ~dst_port:443 secret

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let safebricks_deployment () =
  let host = Host.Enclave.make_host ~mem_bytes:(16 * 1024 * 1024) ~epc_bytes:(4 * 1024 * 1024) in
  let enclave = Host.Enclave.create host in
  (match Host.Enclave.add_page enclave "firewall code+rules v1" with Ok () -> () | Error e -> failwith e);
  (match Host.Enclave.init enclave with Ok _ -> () | Error e -> failwith e);
  (* 1. The NIC tries to DMA straight into the enclave: hardware refuses
     (EPC pages are not valid DMA targets). *)
  let dma_into_protected_memory = Host.Enclave.dma_allowed host ~pos:host.Host.Enclave.epc_base ~len:2048 in
  (* 2. So the packet lands in ordinary host RAM instead. *)
  let staging = 0x4000 in
  let frame = Net.Packet.serialize (sensitive_packet ()) in
  assert (Host.Enclave.dma_allowed host ~pos:staging ~len:(Bytes.length frame));
  Physmem.write_bytes host.Host.Enclave.mem ~pos:staging (Bytes.to_string frame);
  (* 3. The malicious kernel looks at — and edits — the staging buffer
     before the enclave gets to it. *)
  let snooped = Host.Enclave.os_read host ~pos:staging ~len:(Bytes.length frame) in
  let kernel_saw_plaintext = contains snooped secret in
  Host.Enclave.os_write host ~pos:(staging + Bytes.length frame - 10) "TAMPERED!!";
  (* 4. The enclave pulls the packet in and processes it: the tampering
     reached its input. *)
  let kernel_tampered_input =
    match
      Host.Enclave.enter enclave (fun ~read:_ ~write ->
          let pulled = Host.Enclave.os_read host ~pos:staging ~len:(Bytes.length frame) in
          write ~off:1024 (String.sub pulled 0 (min 2048 (String.length pulled)));
          contains pulled "TAMPERED!!")
    with
    | Ok tampered -> tampered
    | Error e -> failwith e
  in
  { deployment = "SafeBricks (host SGX)"; kernel_saw_plaintext; kernel_tampered_input; dma_into_protected_memory }

let snic_deployment () =
  let api = Snic.Api.boot () in
  let vnic =
    match
      Snic.Api.nf_create api
        { Snic.Instructions.default_config with image = "fw-on-nic"; rules = [ Pktio.match_any ] }
    with
    | Ok v -> v
    | Error e -> failwith e
  in
  let m = Snic.Api.machine api in
  (match Snic.Api.inject_packet api (sensitive_packet ()) with Ok _ -> () | Error e -> failwith e);
  (* The packet sits in the NF's on-NIC buffer. The "kernel" here is the
     NIC OS plus anything on the host: neither can reach it. *)
  let buffer, len =
    match Pktio.rx_pop (Machine.pktio m) ~nf:(Snic.Vnic.id vnic) with
    | Some d -> d
    | None -> failwith "packet not delivered"
  in
  let kernel_saw_plaintext =
    match Machine.load_bytes m Machine.Os (Machine.Phys buffer) ~len with
    | Ok bytes -> contains bytes secret
    | Error _ -> false
  in
  let kernel_tampered_input =
    match Machine.store_u8 m Machine.Os (Machine.Phys (buffer + 50)) 0x58 with Ok () -> true | Error _ -> false
  in
  (* Host-initiated DMA into the function's RAM without a sanctioned
     window: the locked (empty) bank TLBs refuse. *)
  let h = Snic.Vnic.handle vnic in
  let dma_into_protected_memory =
    match
      Dma.transfer ~checked:true (Machine.dma m)
        ~bank:(List.hd h.Snic.Instructions.cores)
        ~direction:Dma.To_nic ~nic_addr:h.Snic.Instructions.mem_base ~host_addr:0 ~len:64
    with
    | Ok () -> true
    | Error _ -> false
  in
  { deployment = "S-NIC"; kernel_saw_plaintext; kernel_tampered_input; dma_into_protected_memory }
