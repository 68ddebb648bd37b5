(* What every workload provides, and helpers they share. *)

(* One workload instance, built by [setup] from the seed.  snicbench
   calls [prepare] (client-side work, untimed) before every [call] (the
   timed call the client waits on).  [call] returns the units it
   attempted and how many of them failed with a typed error. *)
type instance = {
  prepare : unit -> unit;
  call : unit -> int * int;
  identity : unit -> (string * string) list;
      (* exact values over the identity window; called once, right after
         the window's last unit *)
  finish : unit -> string list; (* whole-run invariant violations *)
  layer_counts : unit -> (string * float) list; (* per-layer counts and ratios *)
}

type workload = {
  name : string;
  unit_name : string;
  window : int; (* units in the identity window; a multiple of the burst *)
  tail : float; (* the latency percentile reported as latency_tail_us *)
  measure : int option;
      (* when set, the timing metrics cover only the first [measure] units:
         for a workload whose per-unit cost grows with the run, so that a
         slow host does not make it look cheaper by getting less far *)
  setup : seed:int -> instance;
}

(* Every input derives from the workload seed and a per-purpose tag. *)
let derive seed tag = Hashtbl.hash (seed, tag)
let rng seed tag = Trace.Rng.create ~seed:(derive seed tag)
let random_state seed tag = Random.State.make [| seed; tag |]

let make_vendor seed = Snic.Identity.make_vendor ~seed:(derive seed 0x7E4D) ~name:"perfbench NIC vendor" ()

let boot ~vendor ~seed ~index =
  let s = Spans.enter Spans.boot in
  let api =
    Snic.Api.boot ~vendor ~serial:(Printf.sprintf "%04d" index) ~identity_seed:(derive seed (0xB007 + index)) ()
  in
  Spans.leave s;
  api

(* What a remote verifier expects: the requested config plus the cores
   and RAM window the launch assigned (as [Fleet.Orchestrator.place]
   computes it). *)
let expected_measurement (cfg : Snic.Instructions.launch_config) (h : Snic.Instructions.handle) =
  Snic.Measurement.of_config ~image:cfg.Snic.Instructions.image ~cores:h.Snic.Instructions.cores
    ~mem_base:h.Snic.Instructions.mem_base ~mem_len:h.Snic.Instructions.mem_len ~rules:cfg.Snic.Instructions.rules
    ~accels:cfg.Snic.Instructions.accels ~rx_bytes:cfg.Snic.Instructions.rx_bytes
    ~tx_bytes:cfg.Snic.Instructions.tx_bytes ~sched:cfg.Snic.Instructions.sched

let nf_create api cfg =
  let s = Spans.enter Spans.nf_create in
  let r = Snic.Api.nf_create_r api cfg in
  Spans.leave s;
  Result.map_error Snic.Api.create_error_to_string r

let nf_destroy api vnic =
  let s = Spans.enter Spans.nf_destroy in
  let r = Snic.Api.nf_destroy api ~id:(Snic.Vnic.id vnic) in
  Spans.leave s;
  Result.map_error Snic.Api.destroy_error_to_string r

let inject_batch api frames =
  let s = Spans.enter Spans.inject_batch in
  let r = Snic.Api.inject_batch api frames in
  Spans.leave s;
  r

let vnic_process vnic nf ~max =
  let s = Spans.enter Spans.vnic_process in
  let r = Snic.Vnic.process vnic nf ~max in
  Spans.leave s;
  r

let transmitted api =
  let s = Spans.enter Spans.transmitted in
  let r = Snic.Api.transmitted api in
  Spans.leave s;
  r

let ( let* ) = Result.bind

(* The five steps of the Appendix-A handshake against a launched NF,
   each its own span.  Returns the session key both ends derived. *)
let handshake ~vrng ~prng ~vendor_public api vnic ~expected =
  let step name f =
    let s = Spans.enter name in
    let r = f () in
    Spans.leave s;
    r
  in
  let* attester =
    Result.map_error Snic.Instructions.error_to_string
      (Snic.Attestation.attester_of_nf (Snic.Api.instructions api) ~id:(Snic.Vnic.id vnic))
  in
  let verifier, hello =
    step Spans.hello (fun () ->
        Snic.Session.Verifier.start vrng ~vendor_public ~expected_measurement:expected ())
  in
  let prover = Snic.Session.Prover.create prng attester in
  let* quote = step Spans.quote (fun () -> Snic.Session.Prover.on_hello prover hello) in
  let* share = step Spans.check (fun () -> Snic.Session.Verifier.on_quote verifier quote) in
  let* finished = step Spans.finish (fun () -> Snic.Session.Prover.on_share prover share) in
  let* () = step Spans.confirm (fun () -> Snic.Session.Verifier.on_finished verifier finished) in
  match (Snic.Session.Verifier.key verifier, Snic.Session.Prover.key prover) with
  | Some a, Some b when String.equal a b -> Ok a
  | _ -> Error "the two ends derived different session keys"

(* {2 Frames} *)

(* Lowercase-only payloads can never collide with the SYN proxy's
   "SYN" / "ACK:" conventions. *)
let payload rng ~frame_size =
  let len = max 1 (Trace.Flowgen.payload_for_frame ~frame_size ~proto:Net.Packet.Tcp) in
  let base = Trace.Rng.int rng 26 in
  String.init len (fun i -> Char.chr (97 + ((base + (i * 7)) mod 26)))

let tcp_frame (ft : Net.Five_tuple.t) payload =
  Net.Packet.serialize
    (Net.Packet.make ~src_ip:ft.Net.Five_tuple.src_ip ~dst_ip:ft.Net.Five_tuple.dst_ip ~proto:Net.Packet.Tcp
       ~src_port:ft.Net.Five_tuple.src_port ~dst_port:ft.Net.Five_tuple.dst_port payload)

(* A running SHA-256 over length-prefixed frames. *)
let digest_create = Crypto.Sha256.init

let digest_add d (b : Bytes.t) =
  Crypto.Sha256.feed d (Printf.sprintf "%d:" (Bytes.length b));
  Crypto.Sha256.feed_bytes d b

let digest_hex d = Crypto.Sha256.to_hex (Crypto.Sha256.finalize d)

(* Digest of the first [n] frames a NIC transmitted, re-serialized. *)
let egress_digest api ~n =
  let d = digest_create () in
  List.iteri (fun i pkt -> if i < n then digest_add d (Net.Packet.serialize pkt)) (Snic.Api.transmitted api);
  digest_hex d

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
