let bi = Bigint.of_int

let check_hex msg expected v = Alcotest.(check string) msg expected (Bigint.to_hex v)

let test_of_int_roundtrip () =
  List.iter
    (fun n -> Alcotest.(check (option int)) (string_of_int n) (Some n) (Bigint.to_int (bi n)))
    [ 0; 1; 2; 12345; 1 lsl 25; (1 lsl 26) - 1; 1 lsl 26; 1 lsl 40; max_int ]

let test_hex_roundtrip () =
  check_hex "zero" "0" Bigint.zero;
  check_hex "255" "ff" (bi 255);
  check_hex "2^64" "10000000000000000" (Bigint.of_hex "10000000000000000");
  let big = "deadbeefcafebabe0123456789abcdef" in
  Alcotest.(check string) "big" big (Bigint.to_hex (Bigint.of_hex big));
  Alcotest.(check string) "0x prefix" "ff" (Bigint.to_hex (Bigint.of_hex "0xFF"))

let test_add_sub () =
  let a = Bigint.of_hex "ffffffffffffffffffffffff" in
  check_hex "add 1" "1000000000000000000000000" (Bigint.add a Bigint.one);
  check_hex "sub back" "ffffffffffffffffffffffff" (Bigint.sub (Bigint.add a Bigint.one) Bigint.one);
  Alcotest.check_raises "negative" (Invalid_argument "Bigint.sub: negative result") (fun () ->
      ignore (Bigint.sub Bigint.one Bigint.two))

let test_mul_div () =
  let a = Bigint.of_hex "123456789abcdef0123456789abcdef" in
  let b = Bigint.of_hex "fedcba9876543210" in
  let p = Bigint.mul a b in
  let q, r = Bigint.divmod p b in
  Alcotest.(check bool) "q = a" true (Bigint.equal q a);
  Alcotest.(check bool) "r = 0" true (Bigint.is_zero r);
  let q2, r2 = Bigint.divmod (Bigint.add p (bi 7)) b in
  Alcotest.(check bool) "q2 = a" true (Bigint.equal q2 a);
  Alcotest.(check (option int)) "r2 = 7" (Some 7) (Bigint.to_int r2)

let test_div_by_zero () =
  Alcotest.check_raises "div0" Division_by_zero (fun () -> ignore (Bigint.divmod Bigint.one Bigint.zero))

let test_shift () =
  let a = Bigint.of_hex "123456789" in
  check_hex "shl 4" "1234567890" (Bigint.shift_left a 4);
  check_hex "shr 4" "12345678" (Bigint.shift_right a 4);
  check_hex "shl 52" "1234567890000000000000" (Bigint.shift_left a 52);
  Alcotest.(check bool) "shr all" true (Bigint.is_zero (Bigint.shift_right a 36))

let test_modpow () =
  (* 3^100 mod 101 = 1 by Fermat (101 prime, 100 = 101-1) *)
  let r = Bigint.modpow ~base:(bi 3) ~exponent:(bi 100) ~modulus:(bi 101) in
  Alcotest.(check (option int)) "fermat" (Some 1) (Bigint.to_int r);
  let r2 = Bigint.modpow ~base:(bi 2) ~exponent:(bi 10) ~modulus:(bi 10000) in
  Alcotest.(check (option int)) "2^10" (Some 1024) (Bigint.to_int r2);
  let r3 = Bigint.modpow ~base:(bi 7) ~exponent:Bigint.zero ~modulus:(bi 13) in
  Alcotest.(check (option int)) "x^0" (Some 1) (Bigint.to_int r3)

let test_gcd_modinv () =
  Alcotest.(check (option int)) "gcd" (Some 6) (Bigint.to_int (Bigint.gcd (bi 54) (bi 24)));
  (match Bigint.modinv (bi 3) (bi 7) with
  | Some v -> Alcotest.(check (option int)) "3^-1 mod 7" (Some 5) (Bigint.to_int v)
  | None -> Alcotest.fail "expected inverse");
  (match Bigint.modinv (bi 4) (bi 8) with
  | None -> ()
  | Some _ -> Alcotest.fail "no inverse expected");
  match Bigint.modinv (bi 65537) (bi 999999999989) with
  | Some v ->
    let p = Bigint.rem (Bigint.mul v (bi 65537)) (bi 999999999989) in
    Alcotest.(check (option int)) "inverse checks" (Some 1) (Bigint.to_int p)
  | None -> Alcotest.fail "expected inverse"

let test_primality () =
  let st = Random.State.make [| 42 |] in
  List.iter
    (fun (n, expect) ->
      Alcotest.(check bool) (string_of_int n) expect (Bigint.is_probable_prime st (bi n)))
    [ (2, true); (3, true); (4, false); (97, true); (561, false); (7919, true); (7917, false); (1, false); (0, false) ];
  (* The Oakley 768-bit prime must pass. *)
  Alcotest.(check bool) "oakley-768" true (Bigint.is_probable_prime st Crypto.Dh.sim_768.p);
  let p = Bigint.random_prime st ~bits:64 in
  Alcotest.(check int) "64-bit" 64 (Bigint.bit_length p);
  Alcotest.(check bool) "prime" true (Bigint.is_probable_prime st p)

let test_bytes_roundtrip () =
  let s = "\x01\x02\xfe\xff\x00\x42" in
  let v = Bigint.of_bytes_be s in
  Alcotest.(check string) "pad" ("\x00\x00" ^ s) (Bigint.to_bytes_be ~len:8 v);
  Alcotest.check_raises "too short" (Invalid_argument "Bigint.to_bytes_be: too short") (fun () ->
      ignore (Bigint.to_bytes_be ~len:1 v))

(* Property tests: check ring laws against OCaml ints on 31-bit values,
   where both arithmetics are exact. *)
let small = QCheck.int_bound ((1 lsl 30) - 1)

let prop_add_matches_int =
  QCheck.Test.make ~name:"bigint add matches int" ~count:500 (QCheck.pair small small) (fun (a, b) ->
      Bigint.to_int (Bigint.add (bi a) (bi b)) = Some (a + b))

let prop_mul_matches_int =
  QCheck.Test.make ~name:"bigint mul matches int" ~count:500 (QCheck.pair small small) (fun (a, b) ->
      Bigint.to_int (Bigint.mul (bi a) (bi b)) = Some (a * b))

let prop_divmod_matches_int =
  QCheck.Test.make ~name:"bigint divmod matches int" ~count:500 (QCheck.pair small small) (fun (a, b) ->
      if b = 0 then QCheck.assume_fail ()
      else begin
        let q, r = Bigint.divmod (bi a) (bi b) in
        Bigint.to_int q = Some (a / b) && Bigint.to_int r = Some (a mod b)
      end)

let prop_divmod_reconstruct =
  (* On large random numbers: a = q*b + r and r < b. *)
  QCheck.Test.make ~name:"divmod reconstructs" ~count:200
    (QCheck.pair (QCheck.string_of_size (QCheck.Gen.int_range 1 40)) (QCheck.string_of_size (QCheck.Gen.int_range 1 20)))
    (fun (sa, sb) ->
      let a = Bigint.of_bytes_be sa and b = Bigint.of_bytes_be sb in
      if Bigint.is_zero b then QCheck.assume_fail ()
      else begin
        let q, r = Bigint.divmod a b in
        Bigint.equal a (Bigint.add (Bigint.mul q b) r) && Bigint.compare r b < 0
      end)

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hex roundtrip" ~count:200 (QCheck.string_of_size (QCheck.Gen.int_range 1 64)) (fun s ->
      let v = Bigint.of_bytes_be s in
      Bigint.equal v (Bigint.of_hex (Bigint.to_hex v)))

(* ---------- differential properties against Bigint_ref ---------- *)

let pow2 k = Bigint.shift_left Bigint.one k

(* An odd number of exactly [bits] bits. *)
let odd_of_width st bits =
  let m = Bigint.add (pow2 (bits - 1)) (Bigint.random st ~bits:(bits - 1)) in
  if Bigint.testbit m 0 then m else Bigint.add m Bigint.one

(* Moduli up to ~1600 bits, weighted towards odd ones (the Montgomery
   path), with the even, power-of-two, tiny, single-limb and all-ones-limb
   edges mixed in. *)
let gen_modulus st =
  let bits = 1 + Random.State.int st 1600 in
  match Random.State.int st 9 with
  | 0 | 1 | 2 -> odd_of_width st bits
  | 3 -> Bigint.shift_left (odd_of_width st bits) (1 + Random.State.int st 30)
  | 4 -> pow2 (Random.State.int st 1600)
  | 5 -> Bigint.of_int (1 + Random.State.int st 2)
  | 6 -> Bigint.of_int (1 + Random.State.int st ((1 lsl 26) - 1))
  | 7 -> Bigint.sub (pow2 (26 * (1 + Random.State.int st 61))) Bigint.one
  | _ -> Bigint.sub (pow2 bits) Bigint.one

let gen_base m st =
  let mbits = Bigint.bit_length m in
  match Random.State.int st 5 with
  | 0 -> Bigint.zero
  | 1 -> Bigint.add m (Bigint.random st ~bits:(Random.State.int st (mbits + 64)))
  | 2 -> Bigint.random st ~bits:(Random.State.int st 1700)
  | _ -> Bigint.rem (Bigint.random st ~bits:(mbits + 8)) m

(* The reference costs one full multiply and division per exponent bit,
   so exponents shrink as the modulus grows. *)
let gen_exponent m st =
  let mbits = Bigint.bit_length m in
  let cap = if mbits > 800 then 800 else 1600 in
  let bits = 1 + Random.State.int st cap in
  match Random.State.int st 6 with
  | 0 -> Bigint.zero
  | 1 -> Bigint.one
  | 2 ->
    (* A long run of zeros between a few high and a few low bits. *)
    let low = Bigint.random st ~bits:(Random.State.int st 8) in
    Bigint.add (Bigint.shift_left (Bigint.random st ~bits:4) (bits - 1)) (Bigint.add low (pow2 (bits - 1)))
  | 3 -> Bigint.sub (pow2 bits) Bigint.one
  | _ -> Bigint.random st ~bits

let arb_modpow =
  let gen st =
    let m = gen_modulus st in
    (gen_base m st, gen_exponent m st, m)
  in
  QCheck.make gen ~print:(fun (b, e, m) ->
      Printf.sprintf "base=%s exponent=%s modulus=%s" (Bigint.to_hex b) (Bigint.to_hex e) (Bigint.to_hex m))

let prop_modpow_matches_reference =
  QCheck.Test.make ~name:"modpow matches square-and-multiply reference" ~count:300 arb_modpow (fun (base, exponent, modulus) ->
      Bigint.equal (Bigint.modpow ~base ~exponent ~modulus) (Bigint_ref.modpow ~base ~exponent ~modulus))

let test_modpow_edges () =
  let check msg base exponent modulus =
    Alcotest.(check string) msg
      (Bigint.to_hex (Bigint_ref.modpow ~base ~exponent ~modulus))
      (Bigint.to_hex (Bigint.modpow ~base ~exponent ~modulus))
  in
  let p = Crypto.Dh.modp_1536.p in
  check "mod 1" (bi 5) (bi 3) Bigint.one;
  check "0^0 mod 2" Bigint.zero Bigint.zero Bigint.two;
  check "0^0 mod odd" Bigint.zero Bigint.zero (bi 7);
  check "0^e mod odd" Bigint.zero (bi 9) p;
  check "base = modulus" p (bi 3) p;
  check "base > modulus" (Bigint.add (Bigint.mul p p) (bi 3)) (bi 65537) p;
  check "x^1" (bi 123456789) Bigint.one p;
  check "1536-bit full exponent" Bigint.two (Bigint.sub p Bigint.two) p;
  check "even 1536-bit modulus" (bi 3) (Bigint.of_hex "ffffffff00000000ffff") (Bigint.add p Bigint.one);
  Alcotest.check_raises "modulus 0" Division_by_zero (fun () ->
      ignore (Bigint.modpow ~base:Bigint.one ~exponent:Bigint.one ~modulus:Bigint.zero));
  (* Fermat on the 1536-bit prime: 2^(p-1) = 1. *)
  Alcotest.(check bool) "fermat 1536" true
    (Bigint.equal Bigint.one (Bigint.modpow ~base:Bigint.two ~exponent:(Bigint.sub p Bigint.one) ~modulus:p))

let outcome f = match f () with v -> Ok v | exception Invalid_argument msg -> Error msg

let prop_of_bytes_matches_reference =
  QCheck.Test.make ~name:"of_bytes_be matches reference" ~count:300 (QCheck.string_of_size (QCheck.Gen.int_range 0 300))
    (fun s -> Bigint.equal (Bigint.of_bytes_be s) (Bigint_ref.of_bytes_be s))

let prop_to_bytes_matches_reference =
  QCheck.Test.make ~name:"to_bytes_be matches reference" ~count:300
    (QCheck.pair (QCheck.string_of_size (QCheck.Gen.int_range 0 300)) (QCheck.int_range (-4) 8))
    (fun (s, extra) ->
      let v = Bigint.of_bytes_be s in
      let len = max 0 (((Bigint.bit_length v + 7) / 8) + extra) in
      outcome (fun () -> Bigint.to_bytes_be ~len v) = outcome (fun () -> Bigint_ref.to_bytes_be ~len v))

(* Hex strings of mixed case, sometimes prefixed, sometimes with a bad
   digit or empty. *)
let arb_hex =
  let digits = "0123456789abcdefABCDEF" in
  let gen st =
    let n = Random.State.int st 300 in
    let body = String.init n (fun _ -> digits.[Random.State.int st (String.length digits)]) in
    let body =
      if n > 0 && Random.State.int st 8 = 0 then begin
        let bad = Random.State.int st n in
        String.mapi (fun i c -> if i = bad then 'g' else c) body
      end
      else body
    in
    if Random.State.bool st then "0x" ^ body else body
  in
  QCheck.make gen ~print:Fun.id

let prop_of_hex_matches_reference =
  QCheck.Test.make ~name:"of_hex matches reference" ~count:300 arb_hex (fun s ->
      let norm r = Result.map Bigint.to_hex r in
      norm (outcome (fun () -> Bigint.of_hex s)) = norm (outcome (fun () -> Bigint_ref.of_hex s)))

let prop_to_hex_matches_reference =
  QCheck.Test.make ~name:"to_hex matches reference" ~count:300 (QCheck.string_of_size (QCheck.Gen.int_range 0 300)) (fun s ->
      let v = Bigint.of_bytes_be s in
      String.equal (Bigint.to_hex v) (Bigint_ref.to_hex v))

let suite =
  [
    Alcotest.test_case "of_int/to_int roundtrip" `Quick test_of_int_roundtrip;
    Alcotest.test_case "hex roundtrip" `Quick test_hex_roundtrip;
    Alcotest.test_case "add/sub" `Quick test_add_sub;
    Alcotest.test_case "mul/divmod" `Quick test_mul_div;
    Alcotest.test_case "division by zero" `Quick test_div_by_zero;
    Alcotest.test_case "shifts" `Quick test_shift;
    Alcotest.test_case "modpow" `Quick test_modpow;
    Alcotest.test_case "gcd/modinv" `Quick test_gcd_modinv;
    Alcotest.test_case "primality" `Slow test_primality;
    Alcotest.test_case "byte conversion" `Quick test_bytes_roundtrip;
    Alcotest.test_case "modpow edges vs reference" `Quick test_modpow_edges;
    QCheck_alcotest.to_alcotest prop_add_matches_int;
    QCheck_alcotest.to_alcotest prop_mul_matches_int;
    QCheck_alcotest.to_alcotest prop_divmod_matches_int;
    QCheck_alcotest.to_alcotest prop_divmod_reconstruct;
    QCheck_alcotest.to_alcotest prop_hex_roundtrip;
    QCheck_alcotest.to_alcotest prop_modpow_matches_reference;
    QCheck_alcotest.to_alcotest prop_of_bytes_matches_reference;
    QCheck_alcotest.to_alcotest prop_to_bytes_matches_reference;
    QCheck_alcotest.to_alcotest prop_of_hex_matches_reference;
    QCheck_alcotest.to_alcotest prop_to_hex_matches_reference;
  ]
