open Nicsim

let ip = Net.Ipv4_addr.of_string

let packet ?(dport = 8080) () =
  Net.Packet.make ~src_ip:(ip "10.1.1.1") ~dst_ip:(ip "198.51.100.7") ~proto:Net.Packet.Tcp ~src_port:3333
    ~dst_port:dport "chained payload"

(* ---------- compose (compiler-enforced chaining) ---------- *)

let test_compose () =
  let deny_ssh = { (Nf.Firewall.rule_any Nf.Firewall.Deny) with Nf.Firewall.dst_ports = Some (22, 22) } in
  let fw = Nf.Firewall.nf (Nf.Firewall.create ~default:Nf.Firewall.Allow [ deny_ssh ]) in
  let mon = Nf.Monitor.create () in
  let nat = Nf.Nat.create ~internal_prefix:(ip "10.0.0.0", 8) ~external_ip:(ip "203.0.113.1") () in
  let chain = Snic.Chain.compose ~name:"fw|mon|nat" [ fw; Nf.Monitor.nf mon; Nf.Nat.nf nat ] in
  (match chain.Nf.Types.process (packet ()) with
  | Nf.Types.Forward out -> Alcotest.(check string) "nat applied last" "203.0.113.1" (Net.Ipv4_addr.to_string out.src_ip)
  | Nf.Types.Drop r -> Alcotest.fail r);
  (* A drop in the first stage short-circuits: the monitor never sees it. *)
  let before = Nf.Monitor.packets_seen mon in
  Alcotest.(check bool) "fw drops ssh" true (Nf.Types.is_drop (chain.Nf.Types.process (packet ~dport:22 ())));
  Alcotest.(check int) "short circuit" (before + 0) (Nf.Monitor.packets_seen mon);
  Alcotest.check_raises "empty chain" (Invalid_argument "Chain.compose: empty chain") (fun () ->
      ignore (Snic.Chain.compose ~name:"x" []))

(* ---------- cross-VPP chaining ---------- *)

let test_cross_vpp_chain () =
  let api = Snic.Api.boot () in
  (* Stage 1: firewall (rules route ingress to it); stage 2: NAT (no
     ingress rules — it only receives via the cross-VPP path). *)
  let v_fw =
    Result.get_ok
      (Snic.Api.nf_create api
         { Snic.Instructions.default_config with image = "fw"; cores = [ 0 ]; rules = [ Pktio.match_any ] })
  in
  let v_nat =
    Result.get_ok (Snic.Api.nf_create api { Snic.Instructions.default_config with image = "nat"; cores = [ 1 ] })
  in
  let deny_ssh = { (Nf.Firewall.rule_any Nf.Firewall.Deny) with Nf.Firewall.dst_ports = Some (22, 22) } in
  let fw = Nf.Firewall.nf (Nf.Firewall.create ~default:Nf.Firewall.Allow [ deny_ssh ]) in
  let nat =
    Nf.Nat.nf (Nf.Nat.create ~internal_prefix:(ip "10.0.0.0", 8) ~external_ip:(ip "203.0.113.1") ())
  in
  let chain = Snic.Chain.create api [ (v_fw, fw); (v_nat, nat) ] in
  (* Three packets in: one will be dropped by the firewall. *)
  List.iter (fun dport -> ignore (Snic.Api.inject_packet api (packet ~dport ()))) [ 80; 22; 443 ];
  let stats = Snic.Chain.pump chain ~max:10 in
  (match stats with
  | [ s_fw; s_nat ] ->
    Alcotest.(check int) "fw received 3" 3 s_fw.Snic.Chain.received;
    Alcotest.(check int) "fw forwarded 2" 2 s_fw.Snic.Chain.forwarded;
    Alcotest.(check int) "fw dropped 1" 1 s_fw.Snic.Chain.dropped;
    Alcotest.(check int) "nat received 2" 2 s_nat.Snic.Chain.received;
    Alcotest.(check int) "nat forwarded 2" 2 s_nat.Snic.Chain.forwarded
  | _ -> Alcotest.fail "expected two stages");
  Alcotest.(check int) "chain drained" 0 (Snic.Chain.backlog chain);
  (* Wire output carries the NAT rewrite: the full chain ran. *)
  let out = Snic.Api.transmitted api in
  Alcotest.(check int) "two frames out" 2 (List.length out);
  List.iter
    (fun (p : Net.Packet.t) ->
      Alcotest.(check string) "rewritten" "203.0.113.1" (Net.Ipv4_addr.to_string p.src_ip))
    out;
  (* Isolation still holds between the chained stages. *)
  let h_nat = Snic.Vnic.handle v_nat in
  (match Snic.Vnic.read_phys v_fw ~paddr:h_nat.Snic.Instructions.mem_base ~len:4 with
  | Error (Machine.Denied _) -> ()
  | _ -> Alcotest.fail "chained stages can still read each other")

(* ---------- quote wire format ---------- *)

let test_wire_roundtrip () =
  let fields = [ ""; "a"; String.make 1000 'x'; "\x00\xff" ] in
  (match Snic.Wire.decode ~expect:4 (Snic.Wire.encode fields) with
  | Ok got -> Alcotest.(check (list string)) "roundtrip" fields got
  | Error e -> Alcotest.fail e);
  (match Snic.Wire.decode ~expect:2 (Snic.Wire.encode [ "a"; "b"; "c" ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing bytes accepted");
  match Snic.Wire.decode ~expect:2 "\x00\x00\x00\x05ab" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncation accepted"

let test_quote_serialization () =
  let api = Snic.Api.boot () in
  let vnic =
    Result.get_ok (Snic.Api.nf_create api { Snic.Instructions.default_config with image = "img"; cores = [ 0 ] })
  in
  let rng = Random.State.make [| 8 |] in
  let attester =
    Result.get_ok (Snic.Attestation.attester_of_nf (Snic.Api.instructions api) ~id:(Snic.Vnic.id vnic))
  in
  let nonce = "wire-nonce" in
  let _, quote = Snic.Attestation.respond rng attester ~nonce in
  let bytes = Snic.Attestation.quote_to_bytes quote in
  (* Decoded quote still verifies. *)
  (match Snic.Attestation.quote_of_bytes bytes with
  | Error e -> Alcotest.fail e
  | Ok quote' -> begin
    match
      Snic.Attestation.verify rng ~vendor_public:(Snic.Identity.vendor_public (Snic.Api.vendor api)) ~nonce quote'
    with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (Snic.Attestation.verify_error_to_string e)
  end);
  (* Bit-flipped wire bytes either fail to decode or fail to verify. *)
  let bad = Bytes.of_string bytes in
  Bytes.set bad (String.length bytes / 2) '\xFF';
  match Snic.Attestation.quote_of_bytes (Bytes.to_string bad) with
  | Error _ -> ()
  | Ok q -> begin
    match Snic.Attestation.verify rng ~vendor_public:(Snic.Identity.vendor_public (Snic.Api.vendor api)) ~nonce q with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "tampered quote accepted"
  end

(* ---------- SecDCP cache mode ---------- *)

let test_secdcp_resizes_on_os_pressure () =
  let c = Cache.create ~sets:16 ~ways:8 ~line_bits:6 ~mode:Cache.Secdcp ~domains:4 in
  Alcotest.(check int) "even start" 2 (Cache.allocation c ~domain:0);
  (* The OS thrashes its slice: every access a miss. *)
  for i = 0 to 999 do
    ignore (Cache.access c ~domain:0 ~addr:(i * 64 * 16))
  done;
  let moved = Cache.rebalance c in
  Alcotest.(check int) "one way moved" 1 moved;
  Alcotest.(check int) "OS grew" 3 (Cache.allocation c ~domain:0);
  (* A happy OS gives the way back. *)
  for _ = 0 to 999 do
    ignore (Cache.access c ~domain:0 ~addr:0)
  done;
  ignore (Cache.rebalance c);
  Alcotest.(check int) "OS shrank" 2 (Cache.allocation c ~domain:0)

let test_secdcp_ignores_function_behaviour () =
  (* The one-way information-flow property: a function's cache behaviour
     must not influence allocations. *)
  let run nf_active =
    let c = Cache.create ~sets:16 ~ways:8 ~line_bits:6 ~mode:Cache.Secdcp ~domains:4 in
    (* Fixed OS workload... *)
    for i = 0 to 99 do
      ignore (Cache.access c ~domain:0 ~addr:(i mod 4 * 64))
    done;
    (* ...while a function does whatever it wants. *)
    if nf_active then
      for i = 0 to 9999 do
        ignore (Cache.access c ~domain:2 ~addr:(i * 64 * 16))
      done;
    ignore (Cache.rebalance c);
    (Cache.allocation c ~domain:0, Cache.allocation c ~domain:1, Cache.allocation c ~domain:2)
  in
  Alcotest.(check bool) "allocations independent of NF activity" true (run false = run true)

let test_secdcp_validation () =
  let c = Cache.create ~sets:4 ~ways:4 ~line_bits:6 ~mode:Cache.Hard ~domains:2 in
  Alcotest.check_raises "rebalance on Hard" (Invalid_argument "Cache.rebalance: only meaningful in Secdcp mode")
    (fun () -> ignore (Cache.rebalance c))

(* ---------- accelerator functional engines through the vNIC ---------- *)

let test_vnic_accelerators () =
  let api = Snic.Api.boot () in
  let v =
    Result.get_ok
      (Snic.Api.nf_create api
         {
           Snic.Instructions.default_config with
           image = "accel";
           accels = [ (Accel.Zip, 1); (Accel.Raid, 1) ];
         })
  in
  let data = String.concat "" (List.init 100 (fun i -> Printf.sprintf "record-%d;" (i mod 7))) in
  (match Snic.Vnic.zip_compress v ~now:0 data with
  | Ok (c, t) ->
    Alcotest.(check bool) "compresses" true (String.length c < String.length data);
    Alcotest.(check bool) "takes time" true (t > 0);
    (match Snic.Vnic.zip_decompress v ~now:t c with
    | Ok (d, t2) ->
      Alcotest.(check string) "roundtrip" data d;
      Alcotest.(check bool) "time advances" true (t2 > t)
    | Error e -> Alcotest.fail e)
  | Error e -> Alcotest.fail e);
  (match Snic.Vnic.raid_encode v ~now:0 [| "aaaa"; "bbbb"; "cccc" |] with
  | Ok (s, _) -> Alcotest.(check bool) "parity verifies" true (Accelfn.Raid.verify s)
  | Error e -> Alcotest.fail e);
  (* A function without the reservation is refused per accelerator type. *)
  let plain = Result.get_ok (Snic.Api.nf_create api { Snic.Instructions.default_config with image = "p" }) in
  (match Snic.Vnic.zip_compress plain ~now:0 "x" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unreserved ZIP use allowed");
  match Snic.Vnic.dpi_submit v ~now:0 ~bytes:100 with
  | Error _ -> () (* v reserved ZIP+RAID but not DPI *)
  | Ok _ -> Alcotest.fail "unreserved DPI use allowed"

let suite =
  [
    Alcotest.test_case "compose chain" `Quick test_compose;
    Alcotest.test_case "vnic accelerators" `Quick test_vnic_accelerators;
    Alcotest.test_case "cross-VPP chain" `Quick test_cross_vpp_chain;
    Alcotest.test_case "wire roundtrip" `Quick test_wire_roundtrip;
    Alcotest.test_case "quote serialization" `Slow test_quote_serialization;
    Alcotest.test_case "secdcp resizes on OS pressure" `Quick test_secdcp_resizes_on_os_pressure;
    Alcotest.test_case "secdcp ignores function behaviour" `Quick test_secdcp_ignores_function_behaviour;
    Alcotest.test_case "secdcp validation" `Quick test_secdcp_validation;
  ]

(* ---------- launch-configured DMA windows ---------- *)

let test_dma_windows () =
  let api = Snic.Api.boot () in
  let v =
    Result.get_ok
      (Snic.Api.nf_create api
         { Snic.Instructions.default_config with image = "dma-nf"; host_window = Some (0x100000, 65536) })
  in
  let m = Snic.Api.machine api in
  let host = Dma.host_mem (Machine.dma m) in
  (* NIC -> host within both windows. *)
  (match Snic.Vnic.write_virt v ~vaddr:0x10000100 "ship me to the host" with
  | Ok () -> ()
  | Error f -> Alcotest.fail (Machine.fault_to_string f));
  (match Snic.Vnic.dma_to_host v ~nic_off:0x100 ~host_off:0x40 ~len:19 with
  | Ok () -> Alcotest.(check string) "arrived" "ship me to the host" (Physmem.read_bytes host ~pos:0x100040 ~len:19)
  | Error e -> Alcotest.fail e);
  (* Host -> NIC. *)
  Physmem.write_bytes host ~pos:0x100200 "from the host";
  (match Snic.Vnic.dma_from_host v ~nic_off:0x2000 ~host_off:0x200 ~len:13 with
  | Ok () -> begin
    match Snic.Vnic.read_virt v ~vaddr:0x10002000 ~len:13 with
    | Ok s -> Alcotest.(check string) "landed in NF RAM" "from the host" s
    | Error f -> Alcotest.fail (Machine.fault_to_string f)
  end
  | Error e -> Alcotest.fail e);
  (* Escapes are rejected by the locked bank TLBs. *)
  (match Snic.Vnic.dma_to_host v ~nic_off:0x100 ~host_off:0x200000 ~len:8 with
  | Error "DMA window violation" -> ()
  | _ -> Alcotest.fail "host window escape");
  (match Snic.Vnic.dma_to_host v ~nic_off:0x10000000 ~host_off:0 ~len:8 with
  | Error "DMA window violation" -> ()
  | _ -> Alcotest.fail "nic window escape");
  (* A function launched without a host window cannot DMA at all. *)
  let v2 = Result.get_ok (Snic.Api.nf_create api { Snic.Instructions.default_config with image = "no-dma" }) in
  match Snic.Vnic.dma_to_host v2 ~nic_off:0 ~host_off:0 ~len:8 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "windowless DMA allowed"

let suite = suite @ [ Alcotest.test_case "launch-configured DMA windows" `Quick test_dma_windows ]

(* ---------- host enclave substrate ---------- *)

let test_enclave_lifecycle () =
  let host = Host.Enclave.make_host ~mem_bytes:(8 * 1024 * 1024) ~epc_bytes:(2 * 1024 * 1024) in
  let e = Host.Enclave.create host in
  Alcotest.(check bool) "not yet initialized" false (Host.Enclave.initialized e);
  (match Host.Enclave.add_page e "code page" with Ok () -> () | Error m -> Alcotest.fail m);
  (match Host.Enclave.add_page e "data page" with Ok () -> () | Error m -> Alcotest.fail m);
  let d1 = match Host.Enclave.init e with Ok d -> d | Error m -> Alcotest.fail m in
  Alcotest.(check bool) "initialized" true (Host.Enclave.initialized e);
  (* Measurement is content-determined. *)
  let e2 = Host.Enclave.create host in
  ignore (Host.Enclave.add_page e2 "code page");
  ignore (Host.Enclave.add_page e2 "data page");
  let d2 = match Host.Enclave.init e2 with Ok d -> d | Error m -> Alcotest.fail m in
  Alcotest.(check string) "same content, same measurement" (Crypto.Sha256.to_hex d1) (Crypto.Sha256.to_hex d2);
  (* Adding after init fails. *)
  match Host.Enclave.add_page e "late page" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "EADD after EINIT accepted"

let test_enclave_memory_semantics () =
  let host = Host.Enclave.make_host ~mem_bytes:(8 * 1024 * 1024) ~epc_bytes:(2 * 1024 * 1024) in
  let e = Host.Enclave.create host in
  ignore (Host.Enclave.add_page e "SECRET-IN-ENCLAVE");
  ignore (Host.Enclave.init e);
  (* The OS sees abort bytes over the EPC, real bytes elsewhere. *)
  Host.Enclave.os_write host ~pos:0x1000 "normal data";
  Alcotest.(check string) "normal memory readable" "normal data" (Host.Enclave.os_read host ~pos:0x1000 ~len:11);
  let epc_view = Host.Enclave.os_read host ~pos:host.Host.Enclave.epc_base ~len:17 in
  Alcotest.(check string) "EPC reads abort value" (String.make 17 '\xFF') epc_view;
  (* OS writes into the EPC are dropped. *)
  Host.Enclave.os_write host ~pos:host.Host.Enclave.epc_base "OVERWRITE";
  (match Host.Enclave.enter e (fun ~read ~write:_ -> read ~off:0 ~len:17) with
  | Ok inside -> Alcotest.(check string) "enclave content intact" "SECRET-IN-ENCLAVE" inside
  | Error m -> Alcotest.fail m);
  (* DMA rule. *)
  Alcotest.(check bool) "DMA to normal ok" true (Host.Enclave.dma_allowed host ~pos:0x1000 ~len:4096);
  Alcotest.(check bool) "DMA to EPC refused" false
    (Host.Enclave.dma_allowed host ~pos:host.Host.Enclave.epc_base ~len:64);
  Alcotest.(check bool) "DMA straddling refused" false
    (Host.Enclave.dma_allowed host ~pos:(host.Host.Enclave.epc_base - 32) ~len:64)

let suite =
  suite
  @ [
      Alcotest.test_case "enclave lifecycle" `Quick test_enclave_lifecycle;
      Alcotest.test_case "enclave memory semantics" `Quick test_enclave_memory_semantics;
    ]

(* ---------- the four-message session protocol ---------- *)

let test_session_handshake () =
  let api = Snic.Api.boot () in
  let vnic = Result.get_ok (Snic.Api.nf_create api { Snic.Instructions.default_config with image = "sess" }) in
  let attester =
    Result.get_ok (Snic.Attestation.attester_of_nf (Snic.Api.instructions api) ~id:(Snic.Vnic.id vnic))
  in
  let rng = Random.State.make [| 17 |] in
  let vendor_public = Snic.Identity.vendor_public (Snic.Api.vendor api) in
  match Snic.Session.handshake rng ~vendor_public attester with
  | Ok (vk, pk) -> Alcotest.(check string) "keys agree" (Crypto.Sha256.to_hex vk) (Crypto.Sha256.to_hex pk)
  | Error e -> Alcotest.fail e

let test_session_detects_mitm () =
  let api = Snic.Api.boot () in
  let vnic = Result.get_ok (Snic.Api.nf_create api { Snic.Instructions.default_config with image = "mitm" }) in
  let attester =
    Result.get_ok (Snic.Attestation.attester_of_nf (Snic.Api.instructions api) ~id:(Snic.Vnic.id vnic))
  in
  let rng = Random.State.make [| 18 |] in
  let vendor_public = Snic.Identity.vendor_public (Snic.Api.vendor api) in
  let verifier, hello = Snic.Session.Verifier.start rng ~vendor_public () in
  let prover = Snic.Session.Prover.create rng attester in
  let quote = Result.get_ok (Snic.Session.Prover.on_hello prover hello) in
  (* A man in the middle flips a byte of the quote in flight. *)
  let bad = Bytes.of_string quote in
  Bytes.set bad (String.length quote - 3) '\x99';
  (match Snic.Session.Verifier.on_quote verifier (Bytes.to_string bad) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tampered quote accepted");
  (* Replaying the original then tampering with the DH share breaks key
     confirmation instead. *)
  let share = Result.get_ok (Snic.Session.Verifier.on_quote verifier quote) in
  let bad_share = Snic.Wire.encode [ "snic-share"; "1234abcd" ] in
  (match Snic.Session.Prover.on_share prover bad_share with
  | Ok finished -> begin
    match Snic.Session.Verifier.on_finished verifier finished with
    | Error _ -> ()
    | Ok () -> Alcotest.fail "mismatched keys confirmed"
  end
  | Error _ -> ());
  (* The honest share still completes. *)
  match Snic.Session.Prover.on_share prover share with
  | Ok finished -> begin
    match Snic.Session.Verifier.on_finished verifier finished with
    | Ok () -> ()
    | Error e -> Alcotest.fail e
  end
  | Error e -> Alcotest.fail e

let test_session_wrong_message_order () =
  let api = Snic.Api.boot () in
  let vnic = Result.get_ok (Snic.Api.nf_create api { Snic.Instructions.default_config with image = "order" }) in
  let attester =
    Result.get_ok (Snic.Attestation.attester_of_nf (Snic.Api.instructions api) ~id:(Snic.Vnic.id vnic))
  in
  let rng = Random.State.make [| 19 |] in
  let prover = Snic.Session.Prover.create rng attester in
  match Snic.Session.Prover.on_share prover (Snic.Wire.encode [ "snic-share"; "ff" ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "SHARE before HELLO accepted"

let suite =
  suite
  @ [
      Alcotest.test_case "session handshake" `Slow test_session_handshake;
      Alcotest.test_case "session detects MITM" `Slow test_session_detects_mitm;
      Alcotest.test_case "session message order" `Quick test_session_wrong_message_order;
    ]

(* ---------- accelerator MMIO ownership through launch/teardown ---------- *)

let test_mmio_ownership_lifecycle () =
  let api = Snic.Api.boot () in
  let m = Snic.Api.machine api in
  let v =
    Result.get_ok
      (Snic.Api.nf_create api
         { Snic.Instructions.default_config with image = "mmio"; accels = [ (Accel.Dpi, 1) ] })
  in
  let h = Snic.Vnic.handle v in
  let kind, cluster = List.hd h.Snic.Instructions.clusters in
  let mmio = Machine.accel_mmio_base m ~kind ~cluster in
  (* The function configures its registers; nobody else can. *)
  (match Machine.store_u64 m (Machine.Nf_code (Snic.Vnic.id v)) (Machine.Phys (mmio + Machine.mmio_reg_graph)) 0xABC000 with
  | Ok () -> ()
  | Error f -> Alcotest.fail (Machine.fault_to_string f));
  Alcotest.(check bool) "OS cannot reconfigure" false
    (Result.is_ok (Machine.store_u64 m Machine.Os (Machine.Phys mmio) 0xE1));
  (* Teardown scrubs the registers and returns the page to the OS. *)
  ignore (Snic.Api.nf_destroy api ~id:(Snic.Vnic.id v));
  Alcotest.(check int) "registers scrubbed" 0 (Physmem.read_u64 (Machine.mem m) (mmio + Machine.mmio_reg_graph));
  Alcotest.(check bool) "OS owns it again" true (Result.is_ok (Machine.load_u8 m Machine.Os (Machine.Phys mmio)))

let test_mmio_base_validation () =
  let api = Snic.Api.boot () in
  let m = Snic.Api.machine api in
  Alcotest.check_raises "bad cluster" (Invalid_argument "Machine.accel_mmio_base: bad cluster") (fun () ->
      ignore (Machine.accel_mmio_base m ~kind:Accel.Dpi ~cluster:99));
  (* Distinct clusters and kinds get distinct pages. *)
  let a = Machine.accel_mmio_base m ~kind:Accel.Dpi ~cluster:0 in
  let b = Machine.accel_mmio_base m ~kind:Accel.Dpi ~cluster:1 in
  let c = Machine.accel_mmio_base m ~kind:Accel.Zip ~cluster:0 in
  Alcotest.(check bool) "distinct pages" true (a <> b && b <> c && a <> c)

let suite =
  suite
  @ [
      Alcotest.test_case "mmio ownership lifecycle" `Quick test_mmio_ownership_lifecycle;
      Alcotest.test_case "mmio base validation" `Quick test_mmio_base_validation;
    ]

(* ---------- attestation negative paths ---------- *)

(* A NIC OS that stages a different image than the tenant requested
   produces a measurement the verifier's independently-computed
   expectation rejects — the §4.1 guarantee that mis-staging cannot be
   hidden. *)
let test_mis_staged_image_fails_verification () =
  let api = Snic.Api.boot () in
  let requested = { Snic.Instructions.default_config with image = "tenant-image-v1" } in
  (* The OS quietly swaps the image before launching. *)
  let vnic =
    Result.get_ok (Snic.Api.nf_create api { requested with Snic.Instructions.image = "trojaned-image" })
  in
  let h = Snic.Vnic.handle vnic in
  (* The tenant computes the measurement it expects from the config it
     asked for plus the launch-reported cores and RAM window. *)
  let expected =
    Snic.Measurement.of_config ~image:requested.Snic.Instructions.image ~cores:h.Snic.Instructions.cores
      ~mem_base:h.Snic.Instructions.mem_base ~mem_len:h.Snic.Instructions.mem_len
      ~rules:requested.Snic.Instructions.rules ~accels:requested.Snic.Instructions.accels
      ~rx_bytes:requested.Snic.Instructions.rx_bytes ~tx_bytes:requested.Snic.Instructions.tx_bytes
      ~sched:requested.Snic.Instructions.sched
  in
  let attester =
    Result.get_ok (Snic.Attestation.attester_of_nf (Snic.Api.instructions api) ~id:(Snic.Vnic.id vnic))
  in
  let rng = Random.State.make [| 23 |] in
  let nonce = "mis-staging-nonce" in
  let _, quote = Snic.Attestation.respond rng attester ~nonce in
  let vendor_public = Snic.Identity.vendor_public (Snic.Api.vendor api) in
  (match Snic.Attestation.verify rng ~vendor_public ~expected_measurement:expected ~nonce quote with
  | Error (Snic.Attestation.Unexpected_measurement { expected = e; got }) ->
    Alcotest.(check string) "expected is the tenant's" (Crypto.Sha256.to_hex expected) (Crypto.Sha256.to_hex e);
    Alcotest.(check bool) "got differs" false (String.equal e got)
  | Error e -> Alcotest.failf "wrong error: %s" (Snic.Attestation.verify_error_to_string e)
  | Ok _ -> Alcotest.fail "mis-staged image passed verification");
  (* The full session protocol refuses too. *)
  match Snic.Session.handshake rng ~vendor_public ~expected_measurement:expected attester with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "session handshake accepted a mis-staged image"

(* A quote only verifies against the vendor that certified the NIC that
   produced it: NIC identities are not interchangeable. *)
let test_quote_bound_to_nic_identity () =
  let vendor_a = Snic.Identity.make_vendor ~seed:101 ~name:"Vendor A" () in
  let vendor_b = Snic.Identity.make_vendor ~seed:202 ~name:"Vendor B" () in
  let api_a =
    Snic.Api.boot_with ~vendor:vendor_a ~serial:"A-1" ~identity_seed:111 (Machine.default_config ~mode:Machine.Snic)
  in
  let api_b =
    Snic.Api.boot_with ~vendor:vendor_b ~serial:"B-1" ~identity_seed:222 (Machine.default_config ~mode:Machine.Snic)
  in
  let launch api img = Result.get_ok (Snic.Api.nf_create api { Snic.Instructions.default_config with image = img }) in
  let v_a = launch api_a "img-a" and v_b = launch api_b "img-b" in
  let attester_of api v =
    Result.get_ok (Snic.Attestation.attester_of_nf (Snic.Api.instructions api) ~id:(Snic.Vnic.id v))
  in
  let rng = Random.State.make [| 29 |] in
  let nonce = "cross-nic-nonce" in
  let _, quote_a = Snic.Attestation.respond rng (attester_of api_a v_a) ~nonce in
  let _, quote_b = Snic.Attestation.respond rng (attester_of api_b v_b) ~nonce in
  (* Each quote verifies under its own vendor root... *)
  (match Snic.Attestation.verify rng ~vendor_public:(Snic.Identity.vendor_public vendor_a) ~nonce quote_a with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Snic.Attestation.verify_error_to_string e));
  (* ...but NIC A's quote must not verify under vendor B's root. *)
  (match Snic.Attestation.verify rng ~vendor_public:(Snic.Identity.vendor_public vendor_b) ~nonce quote_a with
  | Error Snic.Attestation.Bad_certificate_chain -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Snic.Attestation.verify_error_to_string e)
  | Ok _ -> Alcotest.fail "cross-vendor quote accepted");
  (* Splicing NIC B's certificate chain onto NIC A's quote breaks the
     chain or the signature, never succeeds. *)
  let spliced =
    {
      quote_a with
      Snic.Attestation.ak = quote_b.Snic.Attestation.ak;
      ak_endorsement = quote_b.Snic.Attestation.ak_endorsement;
      ek_cert = quote_b.Snic.Attestation.ek_cert;
    }
  in
  match Snic.Attestation.verify rng ~vendor_public:(Snic.Identity.vendor_public vendor_b) ~nonce spliced with
  | Error (Snic.Attestation.Bad_certificate_chain | Snic.Attestation.Bad_signature) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Snic.Attestation.verify_error_to_string e)
  | Ok _ -> Alcotest.fail "spliced identity accepted"

let suite =
  suite
  @ [
      Alcotest.test_case "mis-staged image fails attestation" `Slow test_mis_staged_image_fails_verification;
      Alcotest.test_case "quote bound to NIC identity" `Slow test_quote_bound_to_nic_identity;
    ]
