type group = { p : Bigint.t; g : Bigint.t }

(* RFC 3526, group 5. *)
let modp_1536 =
  {
    p =
      Bigint.of_hex
        ("FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
       ^ "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
       ^ "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
       ^ "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
       ^ "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
       ^ "9ED529077096966D670C354E4ABC9804F1746C08CA237327FFFFFFFFFFFFFFFF");
    g = Bigint.two;
  }

(* RFC 2409 Oakley group 1 (768-bit); small enough that a full attestation
   handshake runs in milliseconds inside tests and the simulator. *)
let sim_768 =
  {
    p =
      Bigint.of_hex
        ("FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
       ^ "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
       ^ "4FE1356D6D51C245E485B576625E7EC6F44C42E9A63A3620FFFFFFFFFFFFFFFF");
    g = Bigint.two;
  }

type secret = { group : group; x : Bigint.t }
type public = Bigint.t

let keypair state group =
  let bits = Bigint.bit_length group.p - 1 in
  let rec draw () =
    let x = Bigint.random state ~bits in
    if Bigint.compare x Bigint.two < 0 then draw () else x
  in
  let x = draw () in
  ({ group; x }, Bigint.modpow ~base:group.g ~exponent:x ~modulus:group.p)

let shared ~secret ~peer = Bigint.modpow ~base:peer ~exponent:secret.x ~modulus:secret.group.p

let element_bytes group e =
  let len = (Bigint.bit_length group.p + 7) / 8 in
  Bigint.to_bytes_be ~len e

let shared_key ~secret ~peer =
  let z = shared ~secret ~peer in
  Sha256.digest (element_bytes secret.group z)
