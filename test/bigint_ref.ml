(* Test-only references for Bigint's fast paths: the straightforward
   algorithms they replaced, rebuilt from the public API alone, so the
   differential properties in test_bigint.ml compare two independent
   implementations. *)

(* Binary square-and-multiply with a full reduction after every step. *)
let modpow ~base ~exponent ~modulus =
  if Bigint.is_zero modulus then raise Division_by_zero;
  if Bigint.equal modulus Bigint.one then Bigint.zero
  else begin
    let b = ref (Bigint.rem base modulus) in
    let result = ref Bigint.one in
    let bits = Bigint.bit_length exponent in
    for i = 0 to bits - 1 do
      if Bigint.testbit exponent i then result := Bigint.rem (Bigint.mul !result !b) modulus;
      if i < bits - 1 then b := Bigint.rem (Bigint.mul !b !b) modulus
    done;
    !result
  end

(* One shift and add per input byte. *)
let of_bytes_be s =
  String.fold_left (fun acc c -> Bigint.add (Bigint.shift_left acc 8) (Bigint.of_int (Char.code c))) Bigint.zero s

(* One division by 256 per output byte. *)
let to_bytes_be ~len a =
  if Bigint.bit_length a > len * 8 then invalid_arg "Bigint.to_bytes_be: too short";
  let b = Bytes.make len '\000' in
  let rec go a i =
    if not (Bigint.is_zero a) then begin
      let q, r = Bigint.divmod a (Bigint.of_int 256) in
      Bytes.set b i (Char.chr (Option.get (Bigint.to_int r)));
      go q (i - 1)
    end
  in
  go a (len - 1);
  Bytes.to_string b

(* One multiply by 16 and add per digit. *)
let of_hex s =
  let s = if String.length s >= 2 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X') then String.sub s 2 (String.length s - 2) else s in
  if s = "" then invalid_arg "Bigint.of_hex: empty";
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg "Bigint.of_hex: bad digit"
  in
  String.fold_left (fun acc c -> Bigint.add (Bigint.mul acc (Bigint.of_int 16)) (Bigint.of_int (digit c))) Bigint.zero s

(* Four [testbit] reads per nibble. *)
let to_hex a =
  if Bigint.is_zero a then "0"
  else begin
    let nibbles = (Bigint.bit_length a + 3) / 4 in
    String.init nibbles (fun k ->
        let i = nibbles - 1 - k in
        let bit j = if Bigint.testbit a ((i * 4) + j) then 1 lsl j else 0 in
        "0123456789abcdef".[bit 3 + bit 2 + bit 1 + bit 0])
  end
