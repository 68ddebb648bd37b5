type endpoint = { name : string; attester : Attestation.attester; vendor_name : string }

let of_nf ?name api vnic =
  let instr = Api.instructions api in
  match Attestation.attester_of_nf instr ~id:(Vnic.id vnic) with
  | Error e -> invalid_arg ("Constellation.of_nf: " ^ Instructions.error_to_string e)
  | Ok attester ->
    {
      name = (match name with Some n -> n | None -> Printf.sprintf "nf-%d" (Vnic.id vnic));
      attester;
      vendor_name = Identity.vendor_name (Api.vendor api);
    }

let enclave ?(seed = 0xE14) ~vendor ~name ~code () =
  let identity = Identity.manufacture ~seed vendor ~serial:("enclave-" ^ name) in
  {
    name;
    attester = { Attestation.identity; measurement = Crypto.Sha256.digest code };
    vendor_name = Identity.vendor_name vendor;
  }

let name e = e.name
let measurement e = e.attester.Attestation.measurement

type channel = { key : string; mutable next_send : int64 array; mutable next_recv : int64 array }

type error = Attestation_failed of { prover : string; reason : string } | Unknown_vendor of string

let error_to_string = function
  | Attestation_failed { prover; reason } -> Printf.sprintf "attestation of %s failed: %s" prover reason
  | Unknown_vendor v -> "no trust root for vendor: " ^ v

(* One direction: [verifier] challenges [prover]; returns the shared key. *)
let attest_one rng ~trusted_vendors ~expected prover =
  match List.find_opt (fun v -> Identity.vendor_name v = prover.vendor_name) trusted_vendors with
  | None -> Error (Unknown_vendor prover.vendor_name)
  | Some vendor -> begin
    let nonce = String.init 16 (fun _ -> Char.chr (Random.State.int rng 256)) in
    let responder, quote = Attestation.respond rng prover.attester ~nonce in
    match
      Attestation.verify rng ~vendor_public:(Identity.vendor_public vendor) ?expected_measurement:expected ~nonce
        quote
    with
    | Error e -> Error (Attestation_failed { prover = prover.name; reason = Attestation.verify_error_to_string e })
    | Ok verified ->
      let prover_key = Attestation.responder_key responder ~verifier_share:verified.Attestation.verifier_share in
      (* Both sides now hold the same key; assert the protocol's own
         consistency before using it. *)
      assert (String.equal prover_key verified.Attestation.key);
      Ok verified.Attestation.key
  end

let connect rng ~trusted_vendors ?expected_a ?expected_b a b =
  let ( let* ) = Result.bind in
  (* a verifies b, then b verifies a; the channel key binds both
     directions. *)
  let* k_ab = attest_one rng ~trusted_vendors ~expected:expected_b b in
  let* k_ba = attest_one rng ~trusted_vendors ~expected:expected_a a in
  let key = Crypto.Hmac.derive ~secret:(k_ab ^ k_ba) ~label:"constellation-channel" in
  Ok { key; next_send = [| 0L; 0L |]; next_recv = [| 0L; 0L |] }

let send ch ~from payload =
  if from <> 0 && from <> 1 then invalid_arg "Constellation.send: from must be 0 or 1";
  let seq = ch.next_send.(from) in
  ch.next_send.(from) <- Int64.add seq 1L;
  (* The nonce encodes direction and sequence number. *)
  let nonce = Int64.logor (Int64.shift_left (Int64.of_int from) 62) seq in
  Crypto.Cipher.seal ~key:ch.key ~nonce payload

let recv ch ~at ciphertext =
  if at <> 0 && at <> 1 then invalid_arg "Constellation.recv: at must be 0 or 1";
  let from = 1 - at in
  let seq = ch.next_recv.(from) in
  let nonce = Int64.logor (Int64.shift_left (Int64.of_int from) 62) seq in
  match Crypto.Cipher.open_ ~key:ch.key ~nonce ciphertext with
  | None -> Error "authentication failed (tampered, replayed or out of order)"
  | Some pt ->
    ch.next_recv.(from) <- Int64.add seq 1L;
    Ok pt
