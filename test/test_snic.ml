open Nicsim

let ip = Net.Ipv4_addr.of_string

let sample_packet ?(dport = 8080) ?(payload = "hello snic") () =
  Net.Packet.make ~src_ip:(ip "10.1.1.1") ~dst_ip:(ip "198.51.100.7") ~proto:Net.Packet.Udp ~src_port:3333
    ~dst_port:dport payload

let boot () = Snic.Api.boot ()

let basic_config =
  {
    Snic.Instructions.default_config with
    cores = [ 0 ];
    image = "NF-IMAGE-v1";
    memory_bytes = 64 * 1024;
    rules = [ { Pktio.match_any with dst_port = Some 8080 } ];
    accels = [ (Accel.Dpi, 1) ];
  }

(* ---------- measurement ---------- *)

let test_measurement_deterministic () =
  let mk () =
    Snic.Measurement.of_config ~image:"img" ~cores:[ 0; 1 ] ~mem_base:0x1000 ~mem_len:0x2000
      ~rules:[ Pktio.match_any ] ~accels:[ (Accel.Dpi, 2) ] ~rx_bytes:100 ~tx_bytes:200 ~sched:Sched.Fifo
  in
  Alcotest.(check string) "deterministic" (Crypto.Sha256.to_hex (mk ())) (Crypto.Sha256.to_hex (mk ()))

let test_measurement_sensitive () =
  let base ~image ~cores ~rx ?(sched = Sched.Fifo) () =
    Snic.Measurement.of_config ~image ~cores ~mem_base:0x1000 ~mem_len:0x2000 ~rules:[] ~accels:[] ~rx_bytes:rx
      ~tx_bytes:0 ~sched
  in
  let reference = base ~image:"img" ~cores:[ 0 ] ~rx:64 () in
  Alcotest.(check bool) "image changes hash" false (String.equal reference (base ~image:"imh" ~cores:[ 0 ] ~rx:64 ()));
  Alcotest.(check bool) "cores change hash" false (String.equal reference (base ~image:"img" ~cores:[ 1 ] ~rx:64 ()));
  Alcotest.(check bool) "vpp changes hash" false (String.equal reference (base ~image:"img" ~cores:[ 0 ] ~rx:65 ()));
  Alcotest.(check bool) "scheduler changes hash" false
    (String.equal reference (base ~image:"img" ~cores:[ 0 ] ~rx:64 ~sched:Sched.Wfq ()))

(* ---------- nf_launch ---------- *)

let test_launch_happy_path () =
  let api = boot () in
  let instr = Snic.Api.instructions api in
  match Snic.Instructions.nf_launch instr basic_config with
  | Error e -> Alcotest.fail (Snic.Instructions.error_to_string e)
  | Ok (h, latency) ->
    let m = Snic.Api.machine api in
    Alcotest.(check int) "id 0" 0 h.Snic.Instructions.id;
    (* Image copied into the reservation. *)
    Alcotest.(check string) "image present" "NF-IMAGE-v1"
      (Physmem.read_bytes (Machine.mem m) ~pos:h.Snic.Instructions.mem_base ~len:11);
    (* Pages owned; OS repelled. *)
    Alcotest.(check bool) "owned" true
      (Physmem.owner_equal (Physmem.Nf 0) (Physmem.owner_of (Machine.mem m) h.Snic.Instructions.mem_base));
    Alcotest.(check bool) "OS denied" false
      (Result.is_ok (Machine.load_u8 m Machine.Os (Machine.Phys h.Snic.Instructions.mem_base)));
    (* Core TLB locked and covering the reservation. *)
    let tlb = Machine.core_tlb m ~core:0 in
    Alcotest.(check bool) "tlb locked" true (Tlb.is_locked tlb);
    Alcotest.(check int) "tlb covers region" h.Snic.Instructions.mem_len (Tlb.mapped_bytes tlb);
    (* DPI cluster claimed with a locked TLB bank. *)
    let dpi = Machine.accel m Accel.Dpi in
    Alcotest.(check int) "one cluster claimed" 3 (Accel.free_clusters dpi);
    (match h.Snic.Instructions.clusters with
    | [ (Accel.Dpi, c) ] ->
      Alcotest.(check bool) "cluster tlb locked" true (Tlb.is_locked (Accel.cluster_tlb dpi ~cluster:c))
    | _ -> Alcotest.fail "expected one DPI cluster");
    (* Measurement recomputable by a remote party. *)
    let expected =
      Snic.Measurement.of_config ~image:basic_config.image ~cores:basic_config.cores
        ~mem_base:h.Snic.Instructions.mem_base ~mem_len:h.Snic.Instructions.mem_len ~rules:basic_config.rules
        ~accels:basic_config.accels ~rx_bytes:basic_config.rx_bytes ~tx_bytes:basic_config.tx_bytes
        ~sched:basic_config.sched
    in
    Alcotest.(check string) "measurement" (Crypto.Sha256.to_hex expected)
      (Crypto.Sha256.to_hex h.Snic.Instructions.measurement);
    Alcotest.(check bool) "digest latency dominates" true (latency.Snic.Instructions.digest > latency.tlb_setup / 100)

let test_launch_rejects_taken_cores () =
  let api = boot () in
  let instr = Snic.Api.instructions api in
  (match Snic.Instructions.nf_launch instr basic_config with Ok _ -> () | Error _ -> Alcotest.fail "first launch");
  match Snic.Instructions.nf_launch instr { basic_config with rules = [] } with
  | Error (Snic.Instructions.Cores_unavailable [ 0 ]) -> ()
  | Ok _ -> Alcotest.fail "double-claimed core 0"
  | Error e -> Alcotest.failf "unexpected: %s" (Snic.Instructions.error_to_string e)

let test_launch_rejects_bad_cores () =
  let api = boot () in
  match Snic.Instructions.nf_launch (Snic.Api.instructions api) { basic_config with cores = [ 99 ] } with
  | Error (Snic.Instructions.Cores_unavailable [ 99 ]) -> ()
  | _ -> Alcotest.fail "expected Cores_unavailable"

let test_launch_accel_exhaustion_unwinds () =
  let api = boot () in
  let instr = Snic.Api.instructions api in
  let m = Snic.Api.machine api in
  let free_before = Pktio.rx_available (Machine.pktio m) in
  (* There are 4 DPI clusters; ask for 5. *)
  (match
     Snic.Instructions.nf_launch instr { basic_config with accels = [ (Accel.Dpi, 5) ] }
   with
  | Error (Snic.Instructions.Accel_unavailable Accel.Dpi) -> ()
  | Ok _ -> Alcotest.fail "impossible claim succeeded"
  | Error e -> Alcotest.failf "unexpected: %s" (Snic.Instructions.error_to_string e));
  (* Atomicity: everything unwound. *)
  Alcotest.(check int) "clusters restored" 4 (Accel.free_clusters (Machine.accel m Accel.Dpi));
  Alcotest.(check int) "vpp space restored" free_before (Pktio.rx_available (Machine.pktio m));
  Alcotest.(check (option int)) "core free" None (Machine.core_owner m ~core:0);
  Alcotest.(check (list (pair int int))) "no stray allocations"
    []
    (List.filter_map
       (fun (o, a, l) -> if o = Physmem.Nf 0 then Some (a, l) else None)
       (Alloc.live (Machine.alloc m)))

let test_teardown_scrubs_and_releases () =
  let api = boot () in
  let instr = Snic.Api.instructions api in
  let h, _ = Result.get_ok (Snic.Instructions.nf_launch instr basic_config) in
  let m = Snic.Api.machine api in
  let base = h.Snic.Instructions.mem_base and len = h.Snic.Instructions.mem_len in
  (match Snic.Instructions.nf_teardown instr ~id:h.Snic.Instructions.id with
  | Ok lat -> Alcotest.(check bool) "scrub latency scales" true (lat.Snic.Instructions.scrub >= len)
  | Error e -> Alcotest.fail (Snic.Instructions.error_to_string e));
  Alcotest.(check bool) "memory scrubbed" true (Physmem.is_zero (Machine.mem m) ~pos:base ~len);
  Alcotest.(check bool) "pages free" true (Physmem.owner_equal Physmem.Free (Physmem.owner_of (Machine.mem m) base));
  Alcotest.(check bool) "OS readable again" true (Result.is_ok (Machine.load_u8 m Machine.Os (Machine.Phys base)));
  Alcotest.(check (option int)) "core released" None (Machine.core_owner m ~core:0);
  Alcotest.(check int) "clusters released" 4 (Accel.free_clusters (Machine.accel m Accel.Dpi));
  Alcotest.(check int) "no live functions" 0 (List.length (Snic.Instructions.live_functions instr));
  (* The slot is reusable. *)
  match Snic.Instructions.nf_launch instr basic_config with
  | Ok (h2, _) -> Alcotest.(check int) "id reused" 0 h2.Snic.Instructions.id
  | Error e -> Alcotest.fail (Snic.Instructions.error_to_string e)

let test_teardown_unknown () =
  let api = boot () in
  match Snic.Instructions.nf_teardown (Snic.Api.instructions api) ~id:7 with
  | Error (Snic.Instructions.Unknown_function 7) -> ()
  | _ -> Alcotest.fail "expected Unknown_function"

(* Double-destroy vs never-created are distinguishable failures, at the
   instruction level and through the management API. *)
let test_destroy_twice_vs_never_created () =
  let api = boot () in
  let instr = Snic.Api.instructions api in
  let h, _ = Result.get_ok (Snic.Instructions.nf_launch instr basic_config) in
  let id = h.Snic.Instructions.id in
  (match Snic.Instructions.nf_teardown instr ~id with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Snic.Instructions.error_to_string e));
  (* Second teardown: the id was live once, so this is Function_destroyed. *)
  (match Snic.Instructions.nf_teardown instr ~id with
  | Error (Snic.Instructions.Function_destroyed got) -> Alcotest.(check int) "destroyed id" id got
  | Error e -> Alcotest.failf "expected Function_destroyed, got %s" (Snic.Instructions.error_to_string e)
  | Ok _ -> Alcotest.fail "second teardown succeeded");
  (* An id that never existed stays Unknown_function. *)
  (match Snic.Instructions.nf_teardown instr ~id:9 with
  | Error (Snic.Instructions.Unknown_function 9) -> ()
  | _ -> Alcotest.fail "expected Unknown_function");
  (* Same split through Api.nf_destroy. *)
  (match Snic.Api.nf_destroy api ~id with
  | Error (Snic.Api.Already_destroyed got) -> Alcotest.(check int) "api destroyed id" id got
  | Error e -> Alcotest.failf "expected Already_destroyed, got %s" (Snic.Api.destroy_error_to_string e)
  | Ok () -> Alcotest.fail "api double destroy succeeded");
  match Snic.Api.nf_destroy api ~id:9 with
  | Error (Snic.Api.Never_created 9) -> ()
  | Error e -> Alcotest.failf "expected Never_created, got %s" (Snic.Api.destroy_error_to_string e)
  | Ok () -> Alcotest.fail "destroying a never-created id succeeded"

let test_destroy_after_id_reuse () =
  let api = boot () in
  let instr = Snic.Api.instructions api in
  let h, _ = Result.get_ok (Snic.Instructions.nf_launch instr basic_config) in
  let id = h.Snic.Instructions.id in
  (match Snic.Instructions.nf_teardown instr ~id with Ok _ -> () | Error _ -> Alcotest.fail "teardown");
  (* Relaunch reuses the slot: the id is live again, so destroying it is
     a plain success and the retired marker is gone. *)
  let h2, _ = Result.get_ok (Snic.Instructions.nf_launch instr basic_config) in
  Alcotest.(check int) "slot reused" id h2.Snic.Instructions.id;
  match Snic.Api.nf_destroy api ~id with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Snic.Api.destroy_error_to_string e)

(* ---------- packets through a virtual NIC ---------- *)

let test_vnic_packet_roundtrip () =
  let api = boot () in
  match Snic.Api.nf_create api basic_config with
  | Error e -> Alcotest.fail e
  | Ok vnic ->
    (match Snic.Api.inject_packet api (sample_packet ()) with
    | Ok nf -> Alcotest.(check int) "routed" (Snic.Vnic.id vnic) nf
    | Error e -> Alcotest.fail e);
    Alcotest.(check int) "queued" 1 (Snic.Vnic.rx_depth vnic);
    (match Snic.Vnic.rx_packet vnic with
    | Ok (Some (pkt, buffer)) ->
      Alcotest.(check string) "payload intact" "hello snic" pkt.Net.Packet.payload;
      (* Rewrite and transmit, like a tiny NF would. *)
      let out = { pkt with Net.Packet.ttl = pkt.Net.Packet.ttl - 1 } in
      (match Snic.Vnic.tx_packet vnic ~buffer out with Ok () -> () | Error e -> Alcotest.fail e)
    | Ok None -> Alcotest.fail "no packet"
    | Error e -> Alcotest.fail e);
    (match Snic.Api.transmitted api with
    | [ out ] -> Alcotest.(check int) "ttl decremented" 63 out.Net.Packet.ttl
    | l -> Alcotest.failf "expected 1 transmitted, got %d" (List.length l))

let test_vnic_runs_real_nat () =
  let api = boot () in
  let nat =
    Nf.Nat.create ~internal_prefix:(ip "10.0.0.0", 8) ~external_ip:(ip "203.0.113.1") ()
  in
  match Snic.Api.nf_create api { basic_config with rules = [ Pktio.match_any ] } with
  | Error e -> Alcotest.fail e
  | Ok vnic ->
    for i = 0 to 9 do
      ignore (Snic.Api.inject_packet api (sample_packet ~dport:(9000 + i) ()))
    done;
    let stats = Snic.Vnic.process vnic (Nf.Nat.nf nat) ~max:100 in
    Alcotest.(check int) "received" 10 stats.Snic.Vnic.received;
    Alcotest.(check int) "forwarded" 10 stats.Snic.Vnic.forwarded;
    Alcotest.(check int) "no faults" 0 stats.Snic.Vnic.faults;
    let out = Snic.Api.transmitted api in
    Alcotest.(check int) "all on wire" 10 (List.length out);
    List.iter
      (fun (p : Net.Packet.t) ->
        Alcotest.(check string) "rewritten source" "203.0.113.1" (Net.Ipv4_addr.to_string p.src_ip))
      out

(* The old [transmitted]: re-parse the whole wire history on every call.
   The memoized read must return exactly this. *)
let reparse_transmitted api =
  List.filter_map (fun f -> Result.to_option (Net.Packet.parse f)) (Pktio.wire_out (Machine.pktio (Snic.Api.machine api)))

let forward_all = { Nf.Types.name = "forward"; process = (fun p -> Nf.Types.Forward p) }

let burst api vnic ~first n =
  ignore
    (Snic.Api.inject_batch api
       (List.init n (fun i -> Net.Packet.serialize (sample_packet ~payload:(Printf.sprintf "frame %d" (first + i)) ()))));
  ignore (Snic.Vnic.process vnic forward_all ~max:n)

let test_transmitted_matches_reparse () =
  let api = boot () in
  let vnic = Result.get_ok (Snic.Api.nf_create api basic_config) in
  let m = Snic.Api.machine api in
  let io = Machine.pktio m in
  let check what =
    let serialized l = List.map (fun p -> Bytes.to_string (Net.Packet.serialize p)) l in
    Alcotest.(check (list string)) what (serialized (reparse_transmitted api)) (serialized (Snic.Api.transmitted api))
  in
  check "empty wire";
  burst api vnic ~first:0 5;
  check "after the first burst";
  check "no new frames";
  check "still no new frames";
  (* A frame with a bad L4 checksum reaches the wire raw (ingress does not
     verify checksums) and must be filtered by both reads. *)
  let bad = Net.Packet.serialize (sample_packet ()) in
  let last = Bytes.length bad - 1 in
  Bytes.set bad last (Char.chr (Char.code (Bytes.get bad last) lxor 0xFF));
  ignore (Snic.Api.inject_batch api [ bad ]);
  (match Snic.Vnic.rx vnic with
  | Some (addr, len) -> Pktio.transmit io ~nf:(Snic.Vnic.id vnic) ~addr ~len
  | None -> Alcotest.fail "bad-checksum frame not queued");
  Alcotest.(check int) "bad frame on the wire" 6 (List.length (Pktio.wire_out io));
  check "bad-checksum frame filtered";
  Alcotest.(check int) "five parseable" 5 (List.length (Snic.Api.transmitted api));
  burst api vnic ~first:5 7;
  check "after a second burst";
  (* Injected TX drops: fewer frames reach the wire than the NF sends. *)
  let plan = Faults.plan ~seed:3 { Faults.none with Faults.tx_drop = 0.5 } in
  Machine.set_faults m plan;
  burst api vnic ~first:12 20;
  Alcotest.(check bool) "some frames eaten at egress" true (Faults.count plan Faults.Tx_drop > 0);
  Alcotest.(check int) "wire = transmits - drops" (6 + 7 + 20 - Faults.count plan Faults.Tx_drop)
    (List.length (Pktio.wire_out io));
  check "after TX drops";
  burst api vnic ~first:32 9;
  check "interleaved again";
  check "and idle"

(* With the history parsed, a call that finds nothing new allocates only
   the oldest-first copy it returns: 3 words per cons cell. *)
let test_transmitted_alloc_budget () =
  let api = boot () in
  let vnic = Result.get_ok (Snic.Api.nf_create api basic_config) in
  for b = 0 to 49 do
    burst api vnic ~first:(b * 41) 41
  done;
  let n = List.length (Snic.Api.transmitted api) in
  Alcotest.(check bool) (Printf.sprintf "%d frames on the wire" n) true (n >= 2000);
  let before = Gc.minor_words () in
  let out = Snic.Api.transmitted api in
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "same history" n (List.length out);
  Alcotest.(check bool)
    (Printf.sprintf "idle read allocates %.0f words for %d frames" words n)
    true
    (words <= (3. *. float_of_int n) +. 32.)

let test_vnic_cross_isolation () =
  let api = boot () in
  let v0 = Result.get_ok (Snic.Api.nf_create api basic_config) in
  let v1 =
    Result.get_ok
      (Snic.Api.nf_create api
         { basic_config with cores = [ 1 ]; rules = [ { Pktio.match_any with dst_port = Some 9999 } ]; accels = [] })
  in
  let h0 = Snic.Vnic.handle v0 in
  (* NF 1 cannot read NF 0's memory physically... *)
  (match Snic.Vnic.read_phys v1 ~paddr:h0.Snic.Instructions.mem_base ~len:4 with
  | Error (Machine.Denied _) -> ()
  | _ -> Alcotest.fail "cross-NF phys read allowed");
  (* ...nor through its own TLB (it maps only its own region). *)
  (match Snic.Vnic.read_virt v1 ~vaddr:0x10000000 ~len:4 with
  | Ok s -> Alcotest.(check bool) "own region, own bytes" true (String.length s = 4)
  | Error f -> Alcotest.failf "own read failed: %s" (Machine.fault_to_string f));
  (* NF 0 can use its own memory. *)
  match Snic.Vnic.write_virt v0 ~vaddr:0x10000100 "mine" with
  | Ok () -> ()
  | Error f -> Alcotest.failf "own write failed: %s" (Machine.fault_to_string f)

(* ---------- attestation ---------- *)

let test_attestation_handshake () =
  let api = boot () in
  let vnic = Result.get_ok (Snic.Api.nf_create api basic_config) in
  let instr = Snic.Api.instructions api in
  let rng = Random.State.make [| 1 |] in
  let attester = Result.get_ok (Snic.Attestation.attester_of_nf instr ~id:(Snic.Vnic.id vnic)) in
  let nonce = "verifier-nonce-123" in
  let responder, quote = Snic.Attestation.respond rng attester ~nonce in
  let vendor_public = Snic.Identity.vendor_public (Snic.Api.vendor api) in
  match Snic.Attestation.verify rng ~vendor_public ~nonce quote with
  | Error e -> Alcotest.fail (Snic.Attestation.verify_error_to_string e)
  | Ok verified ->
    let nf_key = Snic.Attestation.responder_key responder ~verifier_share:verified.Snic.Attestation.verifier_share in
    Alcotest.(check string) "keys agree" (Crypto.Sha256.to_hex verified.Snic.Attestation.key)
      (Crypto.Sha256.to_hex nf_key);
    Alcotest.(check string) "measurement surfaced"
      (Crypto.Sha256.to_hex (Snic.Vnic.handle vnic).Snic.Instructions.measurement)
      (Crypto.Sha256.to_hex verified.Snic.Attestation.quote_measurement)

let test_attestation_rejects () =
  let api = boot () in
  let vnic = Result.get_ok (Snic.Api.nf_create api basic_config) in
  let instr = Snic.Api.instructions api in
  let rng = Random.State.make [| 2 |] in
  let attester = Result.get_ok (Snic.Attestation.attester_of_nf instr ~id:(Snic.Vnic.id vnic)) in
  let vendor_public = Snic.Identity.vendor_public (Snic.Api.vendor api) in
  let _, quote = Snic.Attestation.respond rng attester ~nonce:"nonce-A" in
  (* Replay under a different nonce. *)
  (match Snic.Attestation.verify rng ~vendor_public ~nonce:"nonce-B" quote with
  | Error Snic.Attestation.Nonce_mismatch -> ()
  | _ -> Alcotest.fail "replay accepted");
  (* Wrong expected measurement (the OS staged different code). *)
  (match
     Snic.Attestation.verify rng ~vendor_public ~expected_measurement:(Crypto.Sha256.digest "other code")
       ~nonce:"nonce-A" quote
   with
  | Error (Snic.Attestation.Unexpected_measurement _) -> ()
  | _ -> Alcotest.fail "wrong measurement accepted");
  (* Forged vendor. *)
  let mallory = Snic.Identity.make_vendor ~seed:0xBAD ~name:"Mallory Silicon" () in
  (match Snic.Attestation.verify rng ~vendor_public:(Snic.Identity.vendor_public mallory) ~nonce:"nonce-A" quote with
  | Error Snic.Attestation.Bad_certificate_chain -> ()
  | _ -> Alcotest.fail "forged vendor accepted");
  (* Tampered measurement inside the quote. *)
  let tampered = { quote with Snic.Attestation.measurement = Crypto.Sha256.digest "evil" } in
  match Snic.Attestation.verify rng ~vendor_public ~nonce:"nonce-A" tampered with
  | Error Snic.Attestation.Bad_signature -> ()
  | _ -> Alcotest.fail "tampered quote accepted"

(* ---------- constellation ---------- *)

let test_constellation_channel () =
  let api = boot () in
  let vnic = Result.get_ok (Snic.Api.nf_create api basic_config) in
  let rng = Random.State.make [| 3 |] in
  let nic_vendor = Snic.Api.vendor api in
  let cpu_vendor = Snic.Identity.make_vendor ~seed:0x1E1 ~name:"CPU Vendor (SGX)" () in
  let nf_ep = Snic.Constellation.of_nf api vnic in
  let enclave = Snic.Constellation.enclave ~vendor:cpu_vendor ~name:"storage-enclave" ~code:"enclave-code-v2" () in
  match Snic.Constellation.connect rng ~trusted_vendors:[ nic_vendor; cpu_vendor ] nf_ep enclave with
  | Error e -> Alcotest.fail (Snic.Constellation.error_to_string e)
  | Ok ch ->
    let ct = Snic.Constellation.send ch ~from:0 "tls keys: 0xSECRET" in
    (match Snic.Constellation.recv ch ~at:1 ct with
    | Ok pt -> Alcotest.(check string) "delivered" "tls keys: 0xSECRET" pt
    | Error e -> Alcotest.fail e);
    (* Replay is rejected. *)
    (match Snic.Constellation.recv ch ~at:1 ct with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "replay accepted");
    (* The reverse direction works independently. *)
    let ct2 = Snic.Constellation.send ch ~from:1 "ack" in
    (match Snic.Constellation.recv ch ~at:0 ct2 with
    | Ok pt -> Alcotest.(check string) "reverse" "ack" pt
    | Error e -> Alcotest.fail e)

let test_constellation_rejects_unknown_vendor () =
  let api = boot () in
  let vnic = Result.get_ok (Snic.Api.nf_create api basic_config) in
  let rng = Random.State.make [| 4 |] in
  let cpu_vendor = Snic.Identity.make_vendor ~seed:0x1E2 ~name:"CPU Vendor" () in
  let nf_ep = Snic.Constellation.of_nf api vnic in
  let enclave = Snic.Constellation.enclave ~vendor:cpu_vendor ~name:"e" ~code:"c" () in
  (* Verifier trusts only the CPU vendor: the NF's NIC vendor is unknown. *)
  match Snic.Constellation.connect rng ~trusted_vendors:[ cpu_vendor ] nf_ep enclave with
  | Error (Snic.Constellation.Unknown_vendor _) -> ()
  | _ -> Alcotest.fail "unknown vendor accepted"

let test_constellation_pins_measurement () =
  let api = boot () in
  let vnic = Result.get_ok (Snic.Api.nf_create api basic_config) in
  let rng = Random.State.make [| 5 |] in
  let cpu_vendor = Snic.Identity.make_vendor ~seed:0x1E3 ~name:"CPU Vendor" () in
  let nf_ep = Snic.Constellation.of_nf api vnic in
  let enclave = Snic.Constellation.enclave ~vendor:cpu_vendor ~name:"e" ~code:"c" () in
  match
    Snic.Constellation.connect rng
      ~trusted_vendors:[ Snic.Api.vendor api; cpu_vendor ]
      ~expected_b:(Crypto.Sha256.digest "different enclave") nf_ep enclave
  with
  | Error (Snic.Constellation.Attestation_failed _) -> ()
  | _ -> Alcotest.fail "measurement pin ignored"

let suite =
  [
    Alcotest.test_case "measurement deterministic" `Quick test_measurement_deterministic;
    Alcotest.test_case "measurement sensitive to fields" `Quick test_measurement_sensitive;
    Alcotest.test_case "nf_launch happy path" `Quick test_launch_happy_path;
    Alcotest.test_case "nf_launch rejects taken cores" `Quick test_launch_rejects_taken_cores;
    Alcotest.test_case "nf_launch rejects bad cores" `Quick test_launch_rejects_bad_cores;
    Alcotest.test_case "nf_launch unwinds on failure" `Quick test_launch_accel_exhaustion_unwinds;
    Alcotest.test_case "nf_teardown scrubs and releases" `Quick test_teardown_scrubs_and_releases;
    Alcotest.test_case "nf_teardown unknown id" `Quick test_teardown_unknown;
    Alcotest.test_case "destroy twice vs never created" `Quick test_destroy_twice_vs_never_created;
    Alcotest.test_case "destroy after id reuse" `Quick test_destroy_after_id_reuse;
    Alcotest.test_case "vnic packet roundtrip" `Quick test_vnic_packet_roundtrip;
    Alcotest.test_case "vnic runs real NAT" `Quick test_vnic_runs_real_nat;
    Alcotest.test_case "transmitted = full re-parse" `Quick test_transmitted_matches_reparse;
    Alcotest.test_case "transmitted allocation budget" `Quick test_transmitted_alloc_budget;
    Alcotest.test_case "vnic cross isolation" `Quick test_vnic_cross_isolation;
    Alcotest.test_case "attestation handshake" `Slow test_attestation_handshake;
    Alcotest.test_case "attestation rejections" `Slow test_attestation_rejects;
    Alcotest.test_case "constellation channel" `Slow test_constellation_channel;
    Alcotest.test_case "constellation unknown vendor" `Slow test_constellation_rejects_unknown_vendor;
    Alcotest.test_case "constellation pins measurement" `Slow test_constellation_pins_measurement;
  ]

let test_launch_scrubs_recycled_memory () =
  (* A tenant's transmitted packet leaves stale bytes in a recycled heap
     slot; a later nf_launch landing there must observe zeros (fresh
     initial state), not the predecessor's data. *)
  let api = boot () in
  let m = Snic.Api.machine api in
  (* Dirty a heap slot directly, the way a freed packet buffer would. *)
  let a = Machine.alloc m in
  let slot = Option.get (Alloc.alloc a ~owner:Physmem.Nic_os (128 * 1024)) in
  Physmem.write_bytes (Machine.mem m) ~pos:(slot + 20_000) "STALE TENANT SECRET";
  Alloc.free a slot;
  (* Launch over it (the allocator reuses the aligned free slot). *)
  let h, _ =
    Result.get_ok
      (Snic.Instructions.nf_launch (Snic.Api.instructions api)
         { basic_config with memory_bytes = 128 * 1024; accels = [] })
  in
  Alcotest.(check int) "slot was reused" slot h.Snic.Instructions.mem_base;
  let tail_len = h.Snic.Instructions.mem_len - String.length basic_config.image in
  Alcotest.(check bool) "no stale bytes visible to the new function" true
    (Physmem.is_zero (Machine.mem m)
       ~pos:(h.Snic.Instructions.mem_base + String.length basic_config.image)
       ~len:tail_len)

let suite = suite @ [ Alcotest.test_case "launch scrubs recycled memory" `Quick test_launch_scrubs_recycled_memory ]
