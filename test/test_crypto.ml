let test_sha256_vectors () =
  let check msg input expected = Alcotest.(check string) msg expected (Crypto.Sha256.to_hex (Crypto.Sha256.digest input)) in
  check "empty" "" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855";
  check "abc" "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";
  check "two blocks" "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1";
  (* 56..64-byte inputs straddle the padding boundary. *)
  check "55 a's" (String.make 55 'a') "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318";
  check "64 a's" (String.make 64 'a') "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"

let test_sha256_incremental () =
  let whole = Crypto.Sha256.digest "the quick brown fox jumps over the lazy dog" in
  let ctx = Crypto.Sha256.init () in
  Crypto.Sha256.feed ctx "the quick brown fox";
  Crypto.Sha256.feed ctx " jumps over";
  Crypto.Sha256.feed ctx " the lazy dog";
  Alcotest.(check string) "chunked = one-shot" (Crypto.Sha256.to_hex whole) (Crypto.Sha256.to_hex (Crypto.Sha256.finalize ctx))

let test_hmac_rfc4231 () =
  (* RFC 4231 test case 2. *)
  let tag = Crypto.Hmac.mac ~key:"Jefe" "what do ya want for nothing?" in
  Alcotest.(check string) "rfc4231 tc2" "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Crypto.Sha256.to_hex tag);
  (* test case 1: 20 bytes of 0x0b, "Hi There" *)
  let tag1 = Crypto.Hmac.mac ~key:(String.make 20 '\x0b') "Hi There" in
  Alcotest.(check string) "rfc4231 tc1" "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Crypto.Sha256.to_hex tag1)

let test_dh_agreement () =
  let st = Random.State.make [| 7 |] in
  let group = Crypto.Dh.sim_768 in
  let sa, pa = Crypto.Dh.keypair st group in
  let sb, pb = Crypto.Dh.keypair st group in
  let ka = Crypto.Dh.shared_key ~secret:sa ~peer:pb in
  let kb = Crypto.Dh.shared_key ~secret:sb ~peer:pa in
  Alcotest.(check string) "shared keys agree" (Crypto.Sha256.to_hex ka) (Crypto.Sha256.to_hex kb);
  Alcotest.(check int) "key is 32 bytes" 32 (String.length ka);
  let sc, _ = Crypto.Dh.keypair st group in
  let kc = Crypto.Dh.shared_key ~secret:sc ~peer:pa in
  Alcotest.(check bool) "third party differs" false (String.equal ka kc)

let test_rsa_sign_verify () =
  let st = Random.State.make [| 11 |] in
  let key = Crypto.Rsa.generate st ~bits:512 in
  let msg = "attest: hash-of-initial-state" in
  let signature = Crypto.Rsa.sign key msg in
  Alcotest.(check int) "sig length" (Crypto.Rsa.modulus_bytes key.pub) (String.length signature);
  Alcotest.(check bool) "verifies" true (Crypto.Rsa.verify key.pub ~msg ~signature);
  Alcotest.(check bool) "wrong msg" false (Crypto.Rsa.verify key.pub ~msg:"other" ~signature);
  let tampered = Bytes.of_string signature in
  Bytes.set tampered 5 (Char.chr (Char.code (Bytes.get tampered 5) lxor 1));
  Alcotest.(check bool) "tampered sig" false (Crypto.Rsa.verify key.pub ~msg ~signature:(Bytes.to_string tampered))

(* The padded digest [Rsa.sign] exponentiates: 0x00 0x01 FF.. 0x00 SHA-256. *)
let encoded_digest ~len msg =
  let digest = Crypto.Sha256.digest msg in
  "\x00\x01" ^ String.make (len - String.length digest - 3) '\xff' ^ "\x00" ^ digest

let test_rsa_crt () =
  List.iter
    (fun seed ->
      let key = Crypto.Rsa.generate (Random.State.make [| seed |]) ~bits:512 in
      let open Crypto.Rsa in
      let tag what = Printf.sprintf "seed %d: %s" seed what in
      let equal what a b = Alcotest.(check string) (tag what) (Bigint.to_hex a) (Bigint.to_hex b) in
      let pred x = Bigint.sub x Bigint.one in
      equal "n = p q" key.pub.n (Bigint.mul key.p key.q);
      equal "dp = d mod (p-1)" key.dp (Bigint.rem key.d (pred key.p));
      equal "dq = d mod (q-1)" key.dq (Bigint.rem key.d (pred key.q));
      equal "qinv q = 1 mod p" Bigint.one (Bigint.rem (Bigint.mul key.qinv key.q) key.p);
      Alcotest.(check bool) (tag "qinv < p") true (Bigint.compare key.qinv key.p < 0);
      List.iter
        (fun msg ->
          let len = modulus_bytes key.pub in
          let plain = Bigint.modpow ~base:(Bigint.of_bytes_be (encoded_digest ~len msg)) ~exponent:key.d ~modulus:key.pub.n in
          let signature = sign key msg in
          Alcotest.(check string) (tag "CRT = plain m^d mod n") (Bigint.to_bytes_be ~len plain) signature;
          Alcotest.(check bool) (tag "verifies") true (verify key.pub ~msg ~signature))
        [ ""; "attest"; String.make 300 'q' ])
    [ 1; 2; 3; 5; 8 ]

(* Recorded with plain m^d mod n signing: a change in keygen's random draw
   order or in signature bytes moves these. *)
let golden_n =
  "10ae18abeeb8349b8f6c587f3d4df17e8af97b25b0c9d5f1a79eee041847f15b061cb5070e5dba8dfea1289d5c678d931bac6e9f57e17a1ed9734ab4e2c62207d"

let golden_signature =
  "00aa7004225fb58e78edac6bbd842a61d210b85d56e50389b9118d9596ff3a5bd36cffa1c599b1bd592793bec2a631e002b73ee019acadc1c25951278ba831da5b"

let test_rsa_golden () =
  let key = Crypto.Rsa.generate (Random.State.make [| 2024 |]) ~bits:512 in
  Alcotest.(check string) "modulus" golden_n (Bigint.to_hex key.pub.n);
  let signature = Crypto.Rsa.sign key "s-nic golden signature" in
  let hex = String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (String.to_seq signature))) in
  Alcotest.(check string) "signature" golden_signature hex

let test_certificate_chain () =
  let st = Random.State.make [| 13 |] in
  let vendor = Crypto.Rsa.generate st ~bits:512 in
  let ek = Crypto.Rsa.generate st ~bits:512 in
  let cert = Crypto.Rsa.issue ~issuer_name:"NIC Vendor Inc" ~issuer_key:vendor ~subject:"S-NIC EK 0042" ek.pub in
  Alcotest.(check bool) "cert verifies" true (Crypto.Rsa.check_certificate ~issuer_key:vendor.pub cert);
  let mallory = Crypto.Rsa.generate st ~bits:512 in
  Alcotest.(check bool) "wrong issuer" false (Crypto.Rsa.check_certificate ~issuer_key:mallory.pub cert)

let test_cipher_roundtrip () =
  let key = Crypto.Sha256.digest "shared" in
  let pt = "payload bytes \x00\x01\x02 with zeros" in
  let ct = Crypto.Cipher.seal ~key ~nonce:42L pt in
  Alcotest.(check int) "tag adds 16" (String.length pt + 16) (String.length ct);
  (match Crypto.Cipher.open_ ~key ~nonce:42L ct with
  | Some got -> Alcotest.(check string) "roundtrip" pt got
  | None -> Alcotest.fail "decrypt failed");
  Alcotest.(check bool) "wrong nonce" true (Crypto.Cipher.open_ ~key ~nonce:43L ct = None);
  Alcotest.(check bool) "wrong key" true (Crypto.Cipher.open_ ~key:(Crypto.Sha256.digest "x") ~nonce:42L ct = None);
  let bad = Bytes.of_string ct in
  Bytes.set bad 0 (Char.chr (Char.code (Bytes.get bad 0) lxor 0x80));
  Alcotest.(check bool) "tampered" true (Crypto.Cipher.open_ ~key ~nonce:42L (Bytes.to_string bad) = None)

let prop_cipher_roundtrip =
  QCheck.Test.make ~name:"cipher roundtrips arbitrary payloads" ~count:100
    (QCheck.string_of_size (QCheck.Gen.int_range 0 500))
    (fun pt ->
      let key = Crypto.Sha256.digest "k" in
      Crypto.Cipher.open_ ~key ~nonce:7L (Crypto.Cipher.seal ~key ~nonce:7L pt) = Some pt)

let prop_hmac_keyed =
  QCheck.Test.make ~name:"hmac distinguishes keys" ~count:100
    (QCheck.pair QCheck.small_string QCheck.small_string)
    (fun (k, m) -> String.equal (Crypto.Hmac.mac ~key:k m) (Crypto.Hmac.mac ~key:(k ^ "x") m) = false)

let prop_hmac_sub_in_place =
  QCheck.Test.make ~name:"hmac over a slice = hmac of String.sub" ~count:200
    (QCheck.triple
       (QCheck.string_of_size (QCheck.Gen.int_range 0 100))
       (QCheck.string_of_size (QCheck.Gen.int_range 0 300))
       (QCheck.pair QCheck.small_nat QCheck.small_nat))
    (fun (key, s, (a, b)) ->
      let pos = a mod (String.length s + 1) in
      let len = b mod (String.length s - pos + 1) in
      String.equal
        (Crypto.Hmac.mac_sub ~key:(Crypto.Hmac.prepare key) (Bytes.of_string s) ~pos ~len)
        (Crypto.Hmac.mac ~key (String.sub s pos len)))

let suite =
  [
    Alcotest.test_case "sha256 FIPS vectors" `Quick test_sha256_vectors;
    Alcotest.test_case "sha256 incremental" `Quick test_sha256_incremental;
    Alcotest.test_case "hmac rfc4231" `Quick test_hmac_rfc4231;
    Alcotest.test_case "dh agreement" `Quick test_dh_agreement;
    Alcotest.test_case "rsa sign/verify" `Slow test_rsa_sign_verify;
    Alcotest.test_case "certificate chain" `Slow test_certificate_chain;
    Alcotest.test_case "rsa crt fields and signature" `Slow test_rsa_crt;
    Alcotest.test_case "rsa golden key and signature" `Quick test_rsa_golden;
    Alcotest.test_case "cipher roundtrip" `Quick test_cipher_roundtrip;
    QCheck_alcotest.to_alcotest prop_cipher_roundtrip;
    QCheck_alcotest.to_alcotest prop_hmac_keyed;
    QCheck_alcotest.to_alcotest prop_hmac_sub_in_place;
  ]

let test_dh_full_strength () =
  (* The RFC 3526 1536-bit group the production protocol would use. *)
  let st = Random.State.make [| 99 |] in
  let group = Crypto.Dh.modp_1536 in
  Alcotest.(check int) "modulus width" 1536 (Bigint.bit_length group.Crypto.Dh.p);
  let sa, pa = Crypto.Dh.keypair st group in
  let sb, pb = Crypto.Dh.keypair st group in
  Alcotest.(check string) "full-strength agreement"
    (Crypto.Sha256.to_hex (Crypto.Dh.shared_key ~secret:sa ~peer:pb))
    (Crypto.Sha256.to_hex (Crypto.Dh.shared_key ~secret:sb ~peer:pa))

let test_rsa_1024 () =
  let st = Random.State.make [| 101 |] in
  let key = Crypto.Rsa.generate st ~bits:1024 in
  let signature = Crypto.Rsa.sign key "production-size key" in
  Alcotest.(check int) "128-byte signature" 128 (String.length signature);
  Alcotest.(check bool) "verifies" true (Crypto.Rsa.verify key.pub ~msg:"production-size key" ~signature)

let test_rsa_cross_key_rejection () =
  let st = Random.State.make [| 103 |] in
  let k1 = Crypto.Rsa.generate st ~bits:512 in
  let k2 = Crypto.Rsa.generate st ~bits:512 in
  let signature = Crypto.Rsa.sign k1 "msg" in
  Alcotest.(check bool) "other key rejects" false (Crypto.Rsa.verify k2.pub ~msg:"msg" ~signature)

let prop_sha256_distinct =
  QCheck.Test.make ~name:"sha256 distinguishes nearby inputs" ~count:300 QCheck.small_string (fun s ->
      not (String.equal (Crypto.Sha256.digest s) (Crypto.Sha256.digest (s ^ "\x00"))))

let prop_sha256_incremental_eq =
  QCheck.Test.make ~name:"sha256 incremental = one-shot at any split" ~count:200
    (QCheck.pair (QCheck.string_of_size (QCheck.Gen.int_range 0 300)) QCheck.small_nat)
    (fun (s, k) ->
      let k = if String.length s = 0 then 0 else k mod (String.length s + 1) in
      let ctx = Crypto.Sha256.init () in
      Crypto.Sha256.feed ctx (String.sub s 0 k);
      Crypto.Sha256.feed ctx (String.sub s k (String.length s - k));
      String.equal (Crypto.Sha256.finalize ctx) (Crypto.Sha256.digest s))

let suite =
  suite
  @ [
      Alcotest.test_case "dh full strength (1536)" `Slow test_dh_full_strength;
      Alcotest.test_case "rsa 1024" `Slow test_rsa_1024;
      Alcotest.test_case "rsa cross-key rejection" `Slow test_rsa_cross_key_rejection;
      QCheck_alcotest.to_alcotest prop_sha256_distinct;
      QCheck_alcotest.to_alcotest prop_sha256_incremental_eq;
    ]

(* ---------- Keyed HMAC state and the fast compression function ----------
   Sha256_ref and Hmac_ref are the implementations these replaced, kept
   verbatim under test/; every property below compares against them. *)

let hex = Crypto.Sha256.to_hex

let test_hmac_rfc4231_more () =
  let check name key msg want =
    Alcotest.(check string) (name ^ " (keyed)") want (hex (Crypto.Hmac.mac ~key msg));
    Alcotest.(check string) (name ^ " (reference)") want (hex (Hmac_ref.mac ~key msg))
  in
  check "rfc4231 tc3" (String.make 20 '\xaa') (String.make 50 '\xdd')
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe";
  check "rfc4231 tc4"
    (String.init 25 (fun i -> Char.chr (i + 1)))
    (String.make 50 '\xcd') "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b";
  (* Cases 6 and 7: a 131-byte key, longer than the block, is hashed first. *)
  check "rfc4231 tc6" (String.make 131 '\xaa') "Test Using Larger Than Block-Size Key - Hash Key First"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54";
  check "rfc4231 tc7" (String.make 131 '\xaa')
    "This is a test using a larger than block-size key and a larger than block-size data. The key needs to be \
     hashed before being used by the HMAC algorithm."
    "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"

let test_sha256_million_a () =
  let want = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0" in
  Alcotest.(check string) "one-shot" want (hex (Crypto.Sha256.digest (String.make 1_000_000 'a')));
  (* The same input fed in odd-sized pieces, so most blocks straddle a feed. *)
  let ctx = Crypto.Sha256.init () in
  let piece = String.make 997 'a' in
  let left = ref 1_000_000 in
  while !left > 0 do
    let n = min !left 997 in
    Crypto.Sha256.feed_sub ctx (Bytes.unsafe_of_string piece) ~pos:0 ~len:n;
    left := !left - n
  done;
  Alcotest.(check string) "997-byte feeds" want (hex (Crypto.Sha256.finalize ctx))

(* Cut [s] at up to four points (taken modulo its length, then sorted). *)
let pieces s cuts =
  let n = String.length s in
  let cuts = List.sort compare (List.map (fun c -> if n = 0 then 0 else c mod (n + 1)) cuts) in
  let rec go pos = function
    | [] -> [ String.sub s pos (n - pos) ]
    | c :: rest -> String.sub s pos (c - pos) :: go c rest
  in
  go 0 cuts

let prop_sha256_matches_reference =
  QCheck.Test.make ~name:"sha256 = reference at 0-1000 B, any split" ~count:300
    (QCheck.pair
       (QCheck.string_of_size (QCheck.Gen.int_range 0 1000))
       (QCheck.list_of_size (QCheck.Gen.int_range 0 4) QCheck.small_nat))
    (fun (s, cuts) ->
      let want = Sha256_ref.digest s in
      let ctx = Crypto.Sha256.init () in
      (* Each piece is fed from the middle of a larger buffer, so whole
         blocks are compressed at unaligned source offsets. *)
      List.iter
        (fun p ->
          let b = Bytes.of_string ("<<<" ^ p ^ ">>") in
          Crypto.Sha256.feed_sub ctx b ~pos:3 ~len:(String.length p))
        (pieces s cuts);
      String.equal (Crypto.Sha256.finalize ctx) want && String.equal (Crypto.Sha256.digest s) want)

let prop_sha256_copy_independent =
  QCheck.Test.make ~name:"sha256 copy forks an independent state" ~count:200
    (QCheck.triple
       (QCheck.string_of_size (QCheck.Gen.int_range 0 200))
       (QCheck.string_of_size (QCheck.Gen.int_range 0 200))
       (QCheck.string_of_size (QCheck.Gen.int_range 0 200)))
    (fun (prefix, x, y) ->
      let ctx = Crypto.Sha256.init () in
      Crypto.Sha256.feed ctx prefix;
      let fork = Crypto.Sha256.copy ctx in
      Crypto.Sha256.feed ctx x;
      Crypto.Sha256.feed fork y;
      let dx = Crypto.Sha256.finalize ctx and dy = Crypto.Sha256.finalize fork in
      String.equal dx (Sha256_ref.digest (prefix ^ x)) && String.equal dy (Sha256_ref.digest (prefix ^ y)))

let prop_hmac_matches_reference =
  QCheck.Test.make ~name:"hmac = reference, keys 0-200 B, messages 0-2000 B" ~count:300
    (QCheck.pair
       (QCheck.string_of_size (QCheck.Gen.int_range 0 200))
       (QCheck.string_of_size (QCheck.Gen.int_range 0 2000)))
    (fun (key, msg) ->
      let want = Hmac_ref.mac ~key msg in
      String.equal (Crypto.Hmac.mac ~key msg) want
      && String.equal
           (Crypto.Hmac.mac_sub ~key:(Crypto.Hmac.prepare key) (Bytes.of_string msg) ~pos:0 ~len:(String.length msg))
           want)

let prop_hmac_key_reuse =
  QCheck.Test.make ~name:"hmac: one prepared key reused, interleaved with a second" ~count:100
    (QCheck.triple
       (QCheck.string_of_size (QCheck.Gen.int_range 0 130))
       (QCheck.string_of_size (QCheck.Gen.int_range 0 130))
       (QCheck.list_of_size (QCheck.Gen.int_range 1 20)
          (QCheck.pair QCheck.bool (QCheck.string_of_size (QCheck.Gen.int_range 0 300)))))
    (fun (k1, k2, msgs) ->
      let p1 = Crypto.Hmac.prepare k1 and p2 = Crypto.Hmac.prepare k2 in
      List.for_all
        (fun (first, msg) ->
          let key, prep = if first then (k1, p1) else (k2, p2) in
          String.equal
            (Crypto.Hmac.mac_sub ~key:prep (Bytes.of_string msg) ~pos:0 ~len:(String.length msg))
            (Hmac_ref.mac ~key msg))
        (msgs @ msgs))

let suite =
  suite
  @ [
      Alcotest.test_case "hmac rfc4231 cases 3, 4, 6, 7" `Quick test_hmac_rfc4231_more;
      Alcotest.test_case "sha256 one million a's" `Quick test_sha256_million_a;
      QCheck_alcotest.to_alcotest prop_sha256_matches_reference;
      QCheck_alcotest.to_alcotest prop_sha256_copy_independent;
      QCheck_alcotest.to_alcotest prop_hmac_matches_reference;
      QCheck_alcotest.to_alcotest prop_hmac_key_reuse;
    ]
