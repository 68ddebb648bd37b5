(* syn-flood: one S-NIC with one SYNP vNIC (the CuckooGuard SYN-cookie
   proxy), created and attested during set-up; its cookie key is derived
   from the attested session key.  The stream is seeded
   [Trace.Attackgen.syn_flood] traffic — 64-B spoofed SYNs interleaved
   with benign handshakes and data — in fixed bursts through
   inject_batch and Vnic.process.  One unit is one frame. *)

let burst = 64
let window = 65536

(* What the proxy must do with a frame: challenge and drop it (every
   SYN), admit and forward it (a benign cookie echo), or pass it (benign
   data of an admitted flow). *)
type expect = Challenge | Admit | Pass

(* One generator round ("epoch"): 32 benign flows of SYN, ACK and 8
   data packets, every benign packet shadowed by 3 spoofed SYNs, i.e.
   1280 frames.  Rounds are drawn from fresh seeds as the run needs
   them, so the proxy sees new flows for as long as the run lasts. *)
let benign_flows = 32
let attack_factor = 3
let packets_per_flow = 8

let setup ~seed =
  let vendor = Common.make_vendor seed in
  let api = Common.boot ~vendor ~seed ~index:0 in
  let cfg =
    {
      Snic.Instructions.default_config with
      Snic.Instructions.image = "perfbench:synp";
      memory_bytes = 256 * 1024;
      rules = [ { Nicsim.Pktio.match_any with Nicsim.Pktio.dst_port = Some Trace.Attackgen.victim_port } ];
      rx_bytes = 128 * 1024;
      tx_bytes = 128 * 1024;
    }
  in
  let vnic = match Common.nf_create api cfg with Ok v -> v | Error e -> failwith ("SYNP nf_create: " ^ e) in
  let session_key =
    match
      Common.handshake ~vrng:(Common.random_state seed 0x5A1) ~prng:(Common.random_state seed 0x5A2)
        ~vendor_public:(Snic.Identity.vendor_public vendor) api vnic
        ~expected:(Common.expected_measurement cfg (Snic.Vnic.handle vnic))
    with
    | Ok k -> k
    | Error e -> failwith ("SYNP attestation: " ^ e)
  in
  let proxy =
    Nf.Syn_proxy.create ~filter_seed:(Common.derive seed 0xF17)
      ~key:(Crypto.Hmac.derive ~secret:session_key ~label:"synp-cookie")
      ()
  in
  let nf = Spans.wrap_nf Spans.synp (Nf.Syn_proxy.nf proxy) in
  (* Client side: frames waiting to be sent, each with what the proxy
     must do with it.  A benign client echoes the cookie its SYN was
     answered with; spoofed sources never see one. *)
  let queue = Queue.create () in
  let rounds = ref 0 in
  let gen_round () =
    let rng = Common.rng seed (0x5F00 + !rounds) in
    incr rounds;
    Trace.Attackgen.syn_flood rng ~benign_flows ~attack_factor ~packets_per_flow ~f:(fun e ->
        let payload =
          match e.Trace.Attackgen.kind with
          | Trace.Attackgen.Syn -> Nf.Syn_proxy.syn_payload
          | Trace.Attackgen.Ack -> Nf.Syn_proxy.ack_payload proxy e.Trace.Attackgen.flow
          | Trace.Attackgen.Data -> Common.payload rng ~frame_size:e.Trace.Attackgen.size
        in
        let expect =
          match (e.Trace.Attackgen.kind, e.Trace.Attackgen.benign) with
          | Trace.Attackgen.Syn, _ -> Challenge
          | Trace.Attackgen.Ack, true -> Admit
          | Trace.Attackgen.Data, true -> Pass
          | (Trace.Attackgen.Ack | Trace.Attackgen.Data), false -> invalid_arg "syn_flood sent spoofed non-SYN traffic"
        in
        Queue.push (Common.tcp_frame e.Trace.Attackgen.flow payload, expect) queue)
  in
  while Queue.length queue < window do
    gen_round ()
  done;
  let pending = ref [] in
  let sent = ref 0 and syns = ref 0 and acks = ref 0 and want_fwd = ref 0 in
  let expected = Common.digest_create () in
  let forwarded = ref 0 and dropped = ref 0 and rejected = ref 0 and faults = ref 0 in
  let prepare () =
    while Queue.length queue < burst do
      gen_round ()
    done;
    pending :=
      List.init burst (fun _ ->
          let frame, expect = Queue.pop queue in
          (match expect with
          | Challenge -> incr syns
          | Admit -> incr acks
          | Pass -> ());
          if expect <> Challenge then begin
            incr want_fwd;
            if !sent < window then Common.digest_add expected frame
          end;
          incr sent;
          frame)
  in
  let call () =
    let _queued, rej = Common.inject_batch api !pending in
    let st = Common.vnic_process vnic nf ~max:burst in
    rejected := !rejected + rej;
    forwarded := !forwarded + st.Snic.Vnic.forwarded;
    dropped := !dropped + st.Snic.Vnic.dropped;
    faults := !faults + st.Snic.Vnic.faults;
    (burst, rej + st.Snic.Vnic.faults)
  in
  let errors = ref [] in
  let identity () =
    let egress = Common.egress_digest api ~n:!forwarded in
    let want = Common.digest_hex expected in
    if not (String.equal egress want) then
      errors := Printf.sprintf "forwarded frames differ from the benign ACK+data input (%s vs %s)" egress want :: !errors;
    [
      ("frames", string_of_int !sent);
      ("forwarded", string_of_int !forwarded);
      ("dropped", string_of_int !dropped);
      ("challenges", string_of_int (Nf.Syn_proxy.challenges proxy));
      ("admitted", string_of_int (Nf.Syn_proxy.admitted proxy));
      ("forwarded_sha256", egress);
    ]
  in
  let finish () =
    let check name got want = if got <> want then [ Printf.sprintf "%s: got %d, expected %d" name got want ] else [] in
    List.rev !errors
    @ check "forwarded" !forwarded !want_fwd
    @ check "dropped" !dropped (!sent - !want_fwd)
    @ check "challenges" (Nf.Syn_proxy.challenges proxy) !syns
    @ check "admitted" (Nf.Syn_proxy.admitted proxy) !acks
    @ check "bad cookies" (Nf.Syn_proxy.bad_cookies proxy) 0
    @ check "data without handshake" (Nf.Syn_proxy.no_handshake proxy) 0
    @ check "ingress rejections" !rejected 0
    @ check "vNIC faults" !faults 0
  in
  let layer_counts () =
    [
      ("nf.synp.admit_ratio", Common.ratio (Nf.Syn_proxy.admitted proxy) (Nf.Syn_proxy.challenges proxy));
      ("nicsim.pktio.rejected", float_of_int !rejected);
    ]
  in
  { Common.prepare; call; identity; finish; layer_counts }

let workload = { Common.name = "syn-flood"; unit_name = "frame"; window; tail = 99.; measure = None; setup }
