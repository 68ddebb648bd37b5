(* attest-churn: tenants arrive one after another on a small rack of
   S-NICs.  One unit is one tenant lifecycle on the next NIC: nf_create,
   the five-step attestation handshake, a short burst of frames through
   the new vNIC, nf_destroy.  Attestation crypto fills the unit. *)

let nics = 4
let pool = 512 (* distinct tenant specs, reused round-robin *)
let burst = 8
let window = 16

type tenant = { cfg : Snic.Instructions.launch_config; frames : Bytes.t list }

let gen_tenant rng i =
  let port = 20000 + i in
  let image = String.init (512 + Trace.Rng.int rng 3584) (fun _ -> Char.chr (Trace.Rng.int rng 256)) in
  let cfg =
    {
      Snic.Instructions.default_config with
      Snic.Instructions.image;
      memory_bytes = Trace.Rng.pick rng [| 64; 128; 256 |] * 1024;
      rules = [ { Nicsim.Pktio.match_any with Nicsim.Pktio.dst_port = Some port } ];
      rx_bytes = 16 * 1024;
      tx_bytes = 16 * 1024;
      accels = (if Trace.Rng.int rng 4 = 0 then [ (Nicsim.Accel.Dpi, 1) ] else []);
    }
  in
  let frames =
    List.init burst (fun k ->
        let ft =
          Net.Five_tuple.make
            ~src_ip:(Net.Ipv4_addr.of_octets 10 1 (i land 0xff) (1 + k))
            ~dst_ip:(Net.Ipv4_addr.of_octets 198 51 100 1)
            ~proto:6 ~src_port:(1024 + Trace.Rng.int rng 60000) ~dst_port:port
        in
        Common.tcp_frame ft (Common.payload rng ~frame_size:(Trace.Rng.pick rng [| 64; 128; 512 |])))
  in
  { cfg; frames }

let setup ~seed =
  let vendor = Common.make_vendor seed in
  let vendor_public = Snic.Identity.vendor_public vendor in
  let rack = Array.init nics (fun index -> Common.boot ~vendor ~seed ~index) in
  let rng = Common.rng seed 0xA7 in
  let tenants = Array.init pool (gen_tenant rng) in
  let vrng = Common.random_state seed 0xA71 and prng = Common.random_state seed 0xA72 in
  let nf = Spans.wrap_nf Spans.mon (Nf.Monitor.nf (Nf.Monitor.create ())) in
  let next = ref 0 in
  let attested = ref 0 and forwarded = ref 0 and rejected = ref 0 and attempted = ref 0 in
  let errors = ref [] in
  let keys = Common.digest_create () in
  let call () =
    let i = !next in
    incr next;
    incr attempted;
    let t = tenants.(i mod pool) and api = rack.(i mod nics) in
    let result =
      let ( let* ) = Result.bind in
      let* vnic = Common.nf_create api t.cfg in
      let expected = Common.expected_measurement t.cfg (Snic.Vnic.handle vnic) in
      let session = Common.handshake ~vrng ~prng ~vendor_public api vnic ~expected in
      let burst =
        match session with
        | Error _ -> Ok ()
        | Ok key ->
          incr attested;
          if i < window then Common.digest_add keys (Bytes.unsafe_of_string key);
          let _queued, rej = Common.inject_batch api t.frames in
          let st = Common.vnic_process vnic nf ~max:burst in
          rejected := !rejected + rej;
          forwarded := !forwarded + st.Snic.Vnic.forwarded;
          if rej + st.Snic.Vnic.faults > 0 then
            Error (Printf.sprintf "%d frames rejected at ingress, %d vNIC faults" rej st.Snic.Vnic.faults)
          else Ok ()
      in
      let destroyed = Common.nf_destroy api vnic in
      let* _key = session in
      let* () = burst in
      destroyed
    in
    match result with
    | Ok () -> (1, 0)
    | Error e ->
      if List.length !errors < 5 then errors := e :: !errors;
      (1, 1)
  in
  let identity () =
    [
      ("tenants", string_of_int !attempted);
      ("attested", string_of_int !attested);
      ("forwarded", string_of_int !forwarded);
      ("session_keys_sha256", Common.digest_hex keys);
    ]
  in
  let finish () =
    List.rev_map (fun e -> "tenant failed: " ^ e) !errors
    @ (if !attested <> !attempted then [ Printf.sprintf "%d of %d tenants attested" !attested !attempted ] else [])
    @ (if !forwarded <> !attested * burst then
         [ Printf.sprintf "forwarded %d frames, expected %d" !forwarded (!attested * burst) ]
       else [])
    @ if !rejected > 0 then [ Printf.sprintf "%d frames rejected at ingress" !rejected ] else []
  in
  let layer_counts () = [ ("nicsim.pktio.rejected", float_of_int !rejected) ] in
  { Common.prepare = ignore; call; identity; finish; layer_counts }

let workload = { Common.name = "attest-churn"; unit_name = "tenant lifecycle"; window; tail = 90.; measure = None; setup }
