(* fabric-bulk: a FW stage on NIC A sends over an attested
   [Fabric.Channel] to a DPI stage on NIC B.  The channel is established
   during set-up, so its key comes from both NICs' attestation.  The
   input is seeded [Trace.Attackgen.elephant_mice] traffic (1500-B
   elephants plus small mice), in bursts: inject and process on NIC A,
   read NIC A's egress with [Snic.Api.transmitted], send and receive
   every frame over the channel, inject and process on NIC B.  One unit
   is one frame.

   [Snic.Api.transmitted] returns the whole egress history, parsed
   afresh on every call, so reading egress costs more as the run goes
   on.  The workload reads it through that public call on purpose: it is
   part of the measured path.  Because of it, the timing metrics cover
   the first [measure] frames: a fixed amount of work, so a slow host
   cannot make frames look cheaper by getting less far. *)

let burst = 32
let window = 4096
let measure = 12288
let dpi_scale = 0.1 (* 3,347 patterns; the paper's 33,471 take seconds to compile *)

let stage_config image =
  {
    Snic.Instructions.default_config with
    Snic.Instructions.image;
    memory_bytes = 256 * 1024;
    rules = [ { Nicsim.Pktio.match_any with Nicsim.Pktio.dst_port = Some Trace.Attackgen.victim_port } ];
    rx_bytes = 128 * 1024;
    tx_bytes = 128 * 1024;
  }

let build short scale = (Nf.Registry.find short).Nf.Registry.build ~scale ()

let setup ~seed =
  let vendor = Common.make_vendor seed in
  let api_a = Common.boot ~vendor ~seed ~index:0 and api_b = Common.boot ~vendor ~seed ~index:1 in
  let place api image =
    let cfg = stage_config image in
    match Common.nf_create api cfg with
    | Ok vnic -> (vnic, Common.expected_measurement cfg (Snic.Vnic.handle vnic))
    | Error e -> failwith (image ^ " nf_create: " ^ e)
  in
  let vnic_a, expected_a = place api_a "perfbench:fw:stage-0" in
  let vnic_b, expected_b = place api_b "perfbench:dpi:stage-1" in
  let endpoint ~nic api vnic ~expected =
    Fabric.Endpoint.make ~expected_measurement:expected ~nic ~insns:(Snic.Api.instructions api) ~nf:(Snic.Vnic.id vnic)
      ()
  in
  let tx, rx =
    let s = Spans.enter Spans.establish in
    let r =
      Fabric.Endpoint.establish (Common.random_state seed 0xFAB) ~vendor_public:(Snic.Identity.vendor_public vendor)
        ~chan:1
        (endpoint ~nic:0 api_a vnic_a ~expected:expected_a)
        (endpoint ~nic:1 api_b vnic_b ~expected:expected_b)
    in
    Spans.leave s;
    match r with Ok link -> link | Error e -> failwith ("channel: " ^ Fabric.Endpoint.error_to_string e)
  in
  let fw = Spans.wrap_nf Spans.fw (build "FW" 1.0) and dpi = Spans.wrap_nf Spans.dpi (build "DPI" dpi_scale) in
  (* The reference: the same two NFs as bare closures, no NIC and no
     channel.  NIC B's egress over the identity window must equal it. *)
  let fw_ref = build "FW" 1.0 and dpi_ref = build "DPI" dpi_scale in
  let expected = Common.digest_create () in
  let queue = Queue.create () in
  let rounds = ref 0 in
  let gen_round () =
    let rng = Common.rng seed (0xE1E0 + !rounds) in
    incr rounds;
    Trace.Attackgen.elephant_mice rng ~elephants:2 ~mice:16 ~elephant_pkts:48 ~mouse_pkts:4 ~f:(fun e ->
        Queue.push
          (Common.tcp_frame e.Trace.Attackgen.flow (Common.payload rng ~frame_size:e.Trace.Attackgen.size))
          queue)
  in
  while Queue.length queue < window do
    gen_round ()
  done;
  let pending = ref [] in
  let sent = ref 0 and seen_a = ref 0 in
  let forwarded_b = ref 0 and rejected = ref 0 and faults = ref 0 and recv_errors = ref 0 in
  let reference frame =
    match Net.Packet.parse frame with
    | Error _ -> ()
    | Ok pkt -> (
      match fw_ref.Nf.Types.process pkt with
      | Nf.Types.Drop _ -> ()
      | Nf.Types.Forward p -> (
        match dpi_ref.Nf.Types.process p with
        | Nf.Types.Drop _ -> ()
        | Nf.Types.Forward p -> Common.digest_add expected (Net.Packet.serialize p)))
  in
  let prepare () =
    while Queue.length queue < burst do
      gen_round ()
    done;
    pending :=
      List.init burst (fun _ ->
          let frame = Queue.pop queue in
          if !sent < window then reference frame;
          incr sent;
          frame)
  in
  let call () =
    let _, rej_a = Common.inject_batch api_a !pending in
    let st_a = Common.vnic_process vnic_a fw ~max:burst in
    let egress = Common.transmitted api_a in
    let fresh = List.filteri (fun i _ -> i >= !seen_a) egress in
    seen_a := !seen_a + List.length fresh;
    let bad = ref 0 in
    let into_b =
      List.filter_map
        (fun pkt ->
          let s = Spans.enter Spans.chan_send in
          let wire = Fabric.Channel.send tx (Bytes.unsafe_to_string (Net.Packet.serialize pkt)) in
          Spans.leave s;
          let s = Spans.enter Spans.chan_recv in
          let r = Fabric.Channel.recv rx wire in
          Spans.leave s;
          match r with
          | Ok payload -> Some (Bytes.of_string payload)
          | Error _ ->
            incr bad;
            None)
        fresh
    in
    let _, rej_b = Common.inject_batch api_b into_b in
    let st_b = Common.vnic_process vnic_b dpi ~max:burst in
    rejected := !rejected + rej_a + rej_b;
    faults := !faults + st_a.Snic.Vnic.faults + st_b.Snic.Vnic.faults;
    recv_errors := !recv_errors + !bad;
    forwarded_b := !forwarded_b + st_b.Snic.Vnic.forwarded;
    (burst, min burst (rej_a + rej_b + st_a.Snic.Vnic.faults + st_b.Snic.Vnic.faults + !bad))
  in
  let channel_rejects () =
    Fabric.Channel.mac_failures rx + Fabric.Channel.replay_rejects rx + Fabric.Channel.stale_rejects rx
    + Fabric.Channel.wrong_channel_rejects rx
  in
  let errors = ref [] in
  let identity () =
    let egress = Common.egress_digest api_b ~n:!forwarded_b in
    let want = Common.digest_hex expected in
    if not (String.equal egress want) then
      errors := Printf.sprintf "NIC B egress differs from the bare FW->DPI reference (%s vs %s)" egress want :: !errors;
    [
      ("frames", string_of_int !sent);
      ("egress_b_frames", string_of_int !forwarded_b);
      ("egress_b_sha256", egress);
      ("mac_failures", string_of_int (Fabric.Channel.mac_failures rx));
      ("window_rejects", string_of_int (Fabric.Channel.replay_rejects rx + Fabric.Channel.stale_rejects rx));
    ]
  in
  let finish () =
    let check name got = if got <> 0 then [ Printf.sprintf "%s: %d" name got ] else [] in
    List.rev !errors
    @ check "channel rejects" (channel_rejects ())
    @ check "channel receive errors" !recv_errors
    @ check "ingress rejections" !rejected
    @ check "vNIC faults" !faults
    @ check "frames lost between NIC A egress and NIC B ingress" (!seen_a - Fabric.Channel.delivered rx)
  in
  let layer_counts () =
    [ ("nicsim.pktio.rejected", float_of_int !rejected); ("fabric.channel.rejects", float_of_int (channel_rejects ())) ]
  in
  { Common.prepare; call; identity; finish; layer_counts }

let workload = { Common.name = "fabric-bulk"; unit_name = "frame"; window; tail = 90.; measure = Some measure; setup }
