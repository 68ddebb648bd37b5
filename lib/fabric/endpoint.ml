type t = {
  e_nic : int;
  e_insns : Snic.Instructions.t;
  e_nf : int;
  e_expected : string option;
  e_alive : unit -> bool;
}

let make ?(alive = fun () -> true) ?expected_measurement ~nic ~insns ~nf () =
  { e_nic = nic; e_insns = insns; e_nf = nf; e_expected = expected_measurement; e_alive = alive }

type registry = (string, int) Hashtbl.t

let registry_create () : registry = Hashtbl.create 16

type error =
  | Endpoint_down of int
  | Attest_failed of { nic : int; reason : string }
  | Identity_reuse of { nic : int; prior : int }

let error_to_string = function
  | Endpoint_down nic -> Printf.sprintf "NIC %d is down or quarantined" nic
  | Attest_failed { nic; reason } -> Printf.sprintf "NIC %d failed attestation: %s" nic reason
  | Identity_reuse { nic; prior } ->
    Printf.sprintf "NIC %d presented an EK already registered to NIC %d" nic prior

let derive_key ~secret_src ~secret_dst ~chan ~src ~dst =
  Crypto.Hmac.derive ~secret:(secret_src ^ secret_dst)
    ~label:(Printf.sprintf "fabric-chan-%d:%d->%d" chan src dst)

(* The EK is the NIC's burned-in identity: certificate subject plus the
   public key itself.  The per-boot AK deliberately stays out of the
   fingerprint — rebooting must not look like a new NIC. *)
let fingerprint (att : Snic.Attestation.attester) =
  let cert = Snic.Identity.ek_certificate att.Snic.Attestation.identity in
  cert.Crypto.Rsa.subject ^ "|" ^ Crypto.Rsa.public_to_string cert.Crypto.Rsa.key

let ( let* ) = Result.bind

let attest_one rng ~vendor_public ep =
  if not (ep.e_alive ()) then Error (Endpoint_down ep.e_nic)
  else
    match Snic.Attestation.attester_of_nf ep.e_insns ~id:ep.e_nf with
    | Error e -> Error (Attest_failed { nic = ep.e_nic; reason = Snic.Instructions.error_to_string e })
    | Ok att -> (
      match Snic.Session.handshake rng ~vendor_public ?expected_measurement:ep.e_expected att with
      | Ok (verifier_key, _prover_key) -> Ok (att, verifier_key)
      | Error reason -> Error (Attest_failed { nic = ep.e_nic; reason }))

let check_identity registry ep att =
  match registry with
  | None -> Ok ()
  | Some reg -> (
    let fp = fingerprint att in
    match Hashtbl.find_opt reg fp with
    | Some prior when prior <> ep.e_nic -> Error (Identity_reuse { nic = ep.e_nic; prior })
    | Some _ -> Ok ()
    | None ->
      Hashtbl.replace reg fp ep.e_nic;
      Ok ())

let establish ?registry ?(sink = Obs.null) ?window ?buffer ?tap rng ~vendor_public ~chan src dst =
  let* att_src, key_src = attest_one rng ~vendor_public src in
  let* () = check_identity registry src att_src in
  let* att_dst, key_dst = attest_one rng ~vendor_public dst in
  let* () = check_identity registry dst att_dst in
  let key = derive_key ~secret_src:key_src ~secret_dst:key_dst ~chan ~src:src.e_nic ~dst:dst.e_nic in
  Obs.count sink Obs.Fabric_handshake;
  Ok (Channel.pair ~sink ?window ?buffer ?tap ~key ~chan ())
