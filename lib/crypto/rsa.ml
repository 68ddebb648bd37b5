type public = { n : Bigint.t; e : Bigint.t }
type keypair = { pub : public; d : Bigint.t; p : Bigint.t; q : Bigint.t; dp : Bigint.t; dq : Bigint.t; qinv : Bigint.t }

let e_65537 = Bigint.of_int 65537

let generate state ~bits =
  if bits < 64 then invalid_arg "Rsa.generate: modulus too small";
  let half = bits / 2 in
  let rec go () =
    let p = Bigint.random_prime state ~bits:half in
    let q = Bigint.random_prime state ~bits:(bits - half) in
    if Bigint.equal p q then go ()
    else begin
      let n = Bigint.mul p q in
      let p1 = Bigint.sub p Bigint.one and q1 = Bigint.sub q Bigint.one in
      match Bigint.modinv e_65537 (Bigint.mul p1 q1) with
      | None -> go ()
      | Some d ->
        (* p and q are distinct primes, so q is invertible modulo p. *)
        let qinv = Option.get (Bigint.modinv q p) in
        { pub = { n; e = e_65537 }; d; p; q; dp = Bigint.rem d p1; dq = Bigint.rem d q1; qinv }
    end
  in
  go ()

let modulus_bytes pub = (Bigint.bit_length pub.n + 7) / 8

(* EMSA-PKCS1-v1_5-style deterministic encoding: 0x00 0x01 FF.. 0x00 DIGEST.
   Enough structure for the simulator; no ASN.1 DigestInfo. *)
let encode_digest ~len digest =
  if len < String.length digest + 11 then invalid_arg "Rsa: modulus too small for digest";
  let ps = String.make (len - String.length digest - 3) '\xff' in
  "\x00\x01" ^ ps ^ "\x00" ^ digest

let sign key msg =
  let len = modulus_bytes key.pub in
  let em = encode_digest ~len (Sha256.digest msg) in
  let m = Bigint.of_bytes_be em in
  (* CRT (Garner): s = m2 + q * (qinv * (m1 - m2) mod p) is exactly m^d mod n. *)
  let m1 = Bigint.modpow ~base:m ~exponent:key.dp ~modulus:key.p in
  let m2 = Bigint.modpow ~base:m ~exponent:key.dq ~modulus:key.q in
  let h = Bigint.rem (Bigint.mul key.qinv (Bigint.sub (Bigint.add m1 key.p) (Bigint.rem m2 key.p))) key.p in
  Bigint.to_bytes_be ~len (Bigint.add m2 (Bigint.mul h key.q))

let verify pub ~msg ~signature =
  let len = modulus_bytes pub in
  String.length signature = len
  &&
  let s = Bigint.of_bytes_be signature in
  Bigint.compare s pub.n < 0
  &&
  let m = Bigint.modpow ~base:s ~exponent:pub.e ~modulus:pub.n in
  match Bigint.to_bytes_be ~len m with
  | em -> String.equal em (encode_digest ~len (Sha256.digest msg))
  | exception Invalid_argument _ -> false

let public_to_string pub = Printf.sprintf "rsa:%s:%s" (Bigint.to_hex pub.n) (Bigint.to_hex pub.e)

type certificate = { subject : string; key : public; issuer : string; signature : string }

let cert_body ~subject ~issuer key = Printf.sprintf "cert|%s|%s|%s" subject issuer (public_to_string key)

let issue ~issuer_name ~issuer_key ~subject key =
  let body = cert_body ~subject ~issuer:issuer_name key in
  { subject; key; issuer = issuer_name; signature = sign issuer_key body }

let check_certificate ~issuer_key cert =
  let body = cert_body ~subject:cert.subject ~issuer:cert.issuer cert.key in
  verify issuer_key ~msg:body ~signature:cert.signature
