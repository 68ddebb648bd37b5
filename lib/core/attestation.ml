type quote = {
  measurement : string;
  group : Crypto.Dh.group;
  dh_public : Bigint.t;
  nonce : string;
  signature : string;
  ak : Crypto.Rsa.public;
  ak_endorsement : string;
  ek_cert : Crypto.Rsa.certificate;
}

type attester = { identity : Identity.t; measurement : string }

let attester_of_nf instr ~id =
  match Instructions.find instr ~id with
  | None -> Error (Instructions.Unknown_function id)
  | Some h -> Ok { identity = Instructions.identity instr; measurement = h.Instructions.measurement }

type responder = { secret : Crypto.Dh.secret }

let respond rng attester ~nonce =
  let group = Crypto.Dh.sim_768 in
  let secret, dh_public = Crypto.Dh.keypair rng group in
  let payload = Instructions.quote_payload ~measurement:attester.measurement ~group ~dh_public ~nonce in
  let signature = Identity.sign_quote attester.identity payload in
  ( { secret },
    {
      measurement = attester.measurement;
      group;
      dh_public;
      nonce;
      signature;
      ak = Identity.ak_public attester.identity;
      ak_endorsement = Identity.ak_endorsement attester.identity;
      ek_cert = Identity.ek_certificate attester.identity;
    } )

let responder_key r ~verifier_share = Crypto.Dh.shared_key ~secret:r.secret ~peer:verifier_share

type verify_error =
  | Bad_certificate_chain
  | Bad_signature
  | Nonce_mismatch
  | Unexpected_measurement of { expected : string; got : string }

let verify_error_to_string = function
  | Bad_certificate_chain -> "vendor/EK/AK certificate chain does not verify"
  | Bad_signature -> "quote signature invalid"
  | Nonce_mismatch -> "quote does not cover the challenge nonce (replay?)"
  | Unexpected_measurement { expected; got } ->
    Printf.sprintf "measurement mismatch: expected %s, got %s" (Crypto.Sha256.to_hex expected)
      (Crypto.Sha256.to_hex got)

type verified = { key : string; verifier_share : Bigint.t; quote_measurement : string }

let verify rng ~vendor_public ?expected_measurement ~nonce quote =
  if
    not
      (Identity.check_ak_chain ~vendor_public ~ek_cert:quote.ek_cert ~ak:quote.ak
         ~endorsement:quote.ak_endorsement)
  then Error Bad_certificate_chain
  else if not (String.equal nonce quote.nonce) then Error Nonce_mismatch
  else begin
    let payload =
      Instructions.quote_payload ~measurement:quote.measurement ~group:quote.group ~dh_public:quote.dh_public
        ~nonce
    in
    if not (Crypto.Rsa.verify quote.ak ~msg:payload ~signature:quote.signature) then Error Bad_signature
    else begin
      match expected_measurement with
      | Some expected when not (String.equal expected quote.measurement) ->
        Error (Unexpected_measurement { expected; got = quote.measurement })
      | _ ->
        let secret, verifier_share = Crypto.Dh.keypair rng quote.group in
        let key = Crypto.Dh.shared_key ~secret ~peer:quote.dh_public in
        Ok { key; verifier_share; quote_measurement = quote.measurement }
    end
  end

let quote_to_bytes (q : quote) =
  Wire.encode
    [
      q.measurement;
      Bigint.to_hex q.group.Crypto.Dh.p;
      Bigint.to_hex q.group.Crypto.Dh.g;
      Bigint.to_hex q.dh_public;
      q.nonce;
      q.signature;
      Crypto.Rsa.public_to_string q.ak;
      q.ak_endorsement;
      q.ek_cert.Crypto.Rsa.subject;
      Crypto.Rsa.public_to_string q.ek_cert.Crypto.Rsa.key;
      q.ek_cert.Crypto.Rsa.issuer;
      q.ek_cert.Crypto.Rsa.signature;
    ]

let public_of_string s =
  match String.split_on_char ':' s with
  | [ "rsa"; n; e ] -> begin
    match (Bigint.of_hex n, Bigint.of_hex e) with
    | n, e -> Ok { Crypto.Rsa.n; e }
    | exception Invalid_argument _ -> Error "malformed RSA key"
  end
  | _ -> Error "malformed RSA key"

let quote_of_bytes s =
  let ( let* ) = Result.bind in
  let* fields = Wire.decode ~expect:12 s in
  match fields with
  | [ measurement; p; g; dh_public; nonce; signature; ak; ak_endorsement; subject; ek_key; issuer; ek_sig ] -> begin
    let* ak = public_of_string ak in
    let* ek_key = public_of_string ek_key in
    match (Bigint.of_hex p, Bigint.of_hex g, Bigint.of_hex dh_public) with
    | p, g, dh_public ->
      Ok
        {
          measurement;
          group = { Crypto.Dh.p; g };
          dh_public;
          nonce;
          signature;
          ak;
          ak_endorsement;
          ek_cert = { Crypto.Rsa.subject; key = ek_key; issuer; signature = ek_sig };
        }
    | exception Invalid_argument _ -> Error "malformed group element"
  end
  | _ -> Error "wrong field count"
