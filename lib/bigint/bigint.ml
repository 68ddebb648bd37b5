(* Little-endian limb representation in base 2^26. The base is chosen so
   that a limb product (2^52) plus carries stays well inside OCaml's 63-bit
   native ints. Values are normalized: no most-significant zero limbs, and
   zero is the empty array. *)

let limb_bits = 26
let base = 1 lsl limb_bits
let limb_mask = base - 1

type t = int array

let zero : t = [||]

let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let is_zero a = Array.length a = 0

let of_int n =
  if n < 0 then invalid_arg "Bigint.of_int: negative";
  let rec limbs n acc = if n = 0 then acc else limbs (n lsr limb_bits) (n land limb_mask :: acc) in
  let l = List.rev (limbs n []) in
  Array.of_list l

let one = of_int 1
let two = of_int 2

let to_int a =
  (* An OCaml int holds 62 value bits; three limbs (78 bits) may overflow. *)
  let n = Array.length a in
  if n = 0 then Some 0
  else if n > 3 then None
  else begin
    let v = ref 0 and ok = ref true in
    for i = n - 1 downto 0 do
      if !v > (max_int - a.(i)) lsr limb_bits then ok := false
      else v := (!v lsl limb_bits) lor a.(i)
    done;
    if !ok then Some !v else None
  end

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)
  end

let equal a b = compare a b = 0

let bit_length a =
  let n = Array.length a in
  if n = 0 then 0
  else begin
    let top = a.(n - 1) in
    let rec width v acc = if v = 0 then acc else width (v lsr 1) (acc + 1) in
    ((n - 1) * limb_bits) + width top 0
  end

let testbit a i =
  let limb = i / limb_bits and off = i mod limb_bits in
  limb < Array.length a && (a.(limb) lsr off) land 1 = 1

let add a b =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb in
  let r = Array.make (n + 1) 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  r.(n) <- !carry;
  normalize r

let sub a b =
  if compare a b < 0 then invalid_arg "Bigint.sub: negative result";
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  normalize r

let mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let s = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- s land limb_mask;
        carry := s lsr limb_bits
      done;
      (* Propagate the final carry; it can exceed one limb. *)
      let k = ref (i + lb) in
      while !carry <> 0 do
        let s = r.(!k) + !carry in
        r.(!k) <- s land limb_mask;
        carry := s lsr limb_bits;
        incr k
      done
    done;
    normalize r
  end

let shift_left a bits =
  if bits < 0 then invalid_arg "Bigint.shift_left";
  if is_zero a || bits = 0 then a
  else begin
    let limb_shift = bits / limb_bits and bit_shift = bits mod limb_bits in
    let la = Array.length a in
    let r = Array.make (la + limb_shift + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl bit_shift in
      r.(i + limb_shift) <- r.(i + limb_shift) lor (v land limb_mask);
      r.(i + limb_shift + 1) <- v lsr limb_bits
    done;
    normalize r
  end

let shift_right a bits =
  if bits < 0 then invalid_arg "Bigint.shift_right";
  if is_zero a || bits = 0 then a
  else begin
    let limb_shift = bits / limb_bits and bit_shift = bits mod limb_bits in
    let la = Array.length a in
    if limb_shift >= la then zero
    else begin
      let n = la - limb_shift in
      let r = Array.make n 0 in
      for i = 0 to n - 1 do
        let lo = a.(i + limb_shift) lsr bit_shift in
        let hi =
          if bit_shift = 0 || i + limb_shift + 1 >= la then 0
          else (a.(i + limb_shift + 1) lsl (limb_bits - bit_shift)) land limb_mask
        in
        r.(i) <- lo lor hi
      done;
      normalize r
    end
  end

(* Knuth TAOCP vol.2 Algorithm D. Divisor is normalized (top limb has its
   high bit set) by a common left shift that leaves the quotient unchanged
   and the remainder shifted. *)
let divmod_knuth u v =
  let n = Array.length v in
  let shift = limb_bits - (bit_length v - (n - 1) * limb_bits) in
  let u = shift_left u shift and v = shift_left v shift in
  let n = Array.length v in
  let m = Array.length u - n in
  if m < 0 then (zero, shift_right u shift)
  else begin
    (* Working copy of u with one extra high limb. *)
    let w = Array.make (Array.length u + 1) 0 in
    Array.blit u 0 w 0 (Array.length u);
    let q = Array.make (m + 1) 0 in
    let vtop = v.(n - 1) in
    let vsec = if n >= 2 then v.(n - 2) else 0 in
    for j = m downto 0 do
      let num = (w.(j + n) * base) + w.(j + n - 1) in
      let qhat = ref (num / vtop) and rhat = ref (num mod vtop) in
      let adjust = ref true in
      while !adjust do
        if !qhat >= base || !qhat * vsec > (!rhat * base) + (if j + n - 2 >= 0 then w.(j + n - 2) else 0)
        then begin
          decr qhat;
          rhat := !rhat + vtop;
          if !rhat >= base then adjust := false
        end
        else adjust := false
      done;
      (* Multiply and subtract: w[j .. j+n] -= qhat * v. *)
      let borrow = ref 0 and carry = ref 0 in
      for i = 0 to n - 1 do
        let p = !qhat * v.(i) + !carry in
        carry := p lsr limb_bits;
        let d = w.(i + j) - (p land limb_mask) - !borrow in
        if d < 0 then begin
          w.(i + j) <- d + base;
          borrow := 1
        end else begin
          w.(i + j) <- d;
          borrow := 0
        end
      done;
      let d = w.(j + n) - !carry - !borrow in
      if d < 0 then begin
        (* qhat was one too large: add v back once. *)
        w.(j + n) <- d + base;
        decr qhat;
        let c = ref 0 in
        for i = 0 to n - 1 do
          let s = w.(i + j) + v.(i) + !c in
          w.(i + j) <- s land limb_mask;
          c := s lsr limb_bits
        done;
        w.(j + n) <- (w.(j + n) + !c) land limb_mask
      end
      else w.(j + n) <- d;
      q.(j) <- !qhat
    done;
    let r = normalize (Array.sub w 0 n) in
    (normalize q, shift_right r shift)
  end

let divmod a b =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then begin
    (* Short division by a single limb. *)
    let d = b.(0) in
    let la = Array.length a in
    let q = Array.make la 0 in
    let r = ref 0 in
    for i = la - 1 downto 0 do
      let cur = (!r lsl limb_bits) lor a.(i) in
      q.(i) <- cur / d;
      r := cur mod d
    done;
    (normalize q, of_int !r)
  end
  else divmod_knuth a b

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

(* [bits_at a pos width] is the [width]-bit field of [a] starting at bit
   [pos], for [width <= limb_bits]; bits past the top read as zero. *)
let bits_at a pos width =
  let limb = pos / limb_bits and off = pos mod limb_bits in
  let la = Array.length a in
  let lo = if limb < la then a.(limb) lsr off else 0 in
  let hi = if off + width > limb_bits && limb + 1 < la then a.(limb + 1) lsl (limb_bits - off) else 0 in
  (lo lor hi) land ((1 lsl width) - 1)

(* Binary square-and-multiply with a full division per step: the path for
   even moduli, where Montgomery reduction does not apply. *)
let modpow_plain b exponent modulus =
  let b = ref (rem b modulus) in
  let result = ref one in
  let bits = bit_length exponent in
  for i = 0 to bits - 1 do
    if testbit exponent i then result := rem (mul !result !b) modulus;
    if i < bits - 1 then b := rem (mul !b !b) modulus
  done;
  !result

(* Montgomery arithmetic modulo an odd [m] of [n] limbs, with R = 2^(26 n).
   Operands are fixed-width buffers of exactly [n] limbs holding values
   below [m]. *)

(* -m^-1 mod 2^26 by Newton iteration: an odd [m0] is its own inverse to
   3 bits, and each step doubles the correct bits. Products wrap modulo
   2^63, which keeps the low 26 bits exact. *)
let neg_inv_limb m0 =
  let x = ref m0 in
  for _ = 1 to 4 do
    x := !x * (2 - (m0 * !x))
  done;
  -(!x) land limb_mask

(* [mont_mul m minv t a b dst] stores [a * b * R^-1 mod m] in [dst], using
   [t] (n + 1 limbs) as scratch; [dst] may alias [a] or [b]. This is the
   fused CIOS loop: 26-bit limbs keep t[j] + a_i*b[j] + u*m[j] + carry
   below 2^54, so one carry covers both the product and the reduction and
   each outer step makes a single pass over [t]. *)
let mont_mul (m : int array) minv (t : int array) (a : int array) (b : int array) (dst : int array) =
  let n = Array.length m in
  for j = 0 to n do
    Array.unsafe_set t j 0
  done;
  let b0 = Array.unsafe_get b 0 and m0 = Array.unsafe_get m 0 in
  for i = 0 to n - 1 do
    let ai = Array.unsafe_get a i in
    let s = Array.unsafe_get t 0 + (ai * b0) in
    let u = ((s land limb_mask) * minv) land limb_mask in
    let carry = ref ((s + (u * m0)) lsr limb_bits) in
    for j = 1 to n - 1 do
      let s = Array.unsafe_get t j + (ai * Array.unsafe_get b j) + (u * Array.unsafe_get m j) + !carry in
      Array.unsafe_set t (j - 1) (s land limb_mask);
      carry := s lsr limb_bits
    done;
    let s = Array.unsafe_get t n + !carry in
    Array.unsafe_set t (n - 1) (s land limb_mask);
    Array.unsafe_set t n (s lsr limb_bits)
  done;
  (* Here t < 2m, so one conditional subtraction fully reduces it. *)
  let i = ref (n - 1) in
  while !i >= 0 && t.(!i) = m.(!i) do
    decr i
  done;
  if t.(n) <> 0 || !i < 0 || t.(!i) > m.(!i) then begin
    let borrow = ref 0 in
    for i = 0 to n - 1 do
      let d = t.(i) - m.(i) - !borrow in
      dst.(i) <- d land limb_mask;
      borrow := -(d asr limb_bits)
    done
  end
  else Array.blit t 0 dst 0 n

(* Window width for an exponent of [bits] bits. Small exponents (65537
   when verifying) use plain binary, where a table would not pay off. *)
let window_bits bits = if bits <= 24 then 1 else if bits <= 80 then 3 else if bits <= 240 then 4 else if bits <= 672 then 5 else 6

(* Left-to-right fixed-window exponentiation in Montgomery form. *)
let modpow_odd b exponent m =
  let n = Array.length m in
  let minv = neg_inv_limb m.(0) in
  let t = Array.make (n + 1) 0 in
  let fixed x =
    let r = Array.make n 0 in
    Array.blit x 0 r 0 (Array.length x);
    r
  in
  let ebits = bit_length exponent in
  let w = window_bits ebits in
  (* table.(k) = b^k * R mod m; entry 0 is never read. *)
  let table = Array.make (1 lsl w) [||] in
  table.(1) <- fixed (rem (shift_left b (n * limb_bits)) m);
  for k = 2 to (1 lsl w) - 1 do
    table.(k) <- Array.make n 0;
    mont_mul m minv t table.(k - 1) table.(1) table.(k)
  done;
  let windows = (ebits + w - 1) / w in
  let acc = Array.copy table.(bits_at exponent ((windows - 1) * w) w) in
  for i = windows - 2 downto 0 do
    for _ = 1 to w do
      mont_mul m minv t acc acc acc
    done;
    let d = bits_at exponent (i * w) w in
    if d <> 0 then mont_mul m minv t acc table.(d) acc
  done;
  (* Multiplying by a plain 1 leaves Montgomery form. *)
  mont_mul m minv t acc (fixed one) acc;
  normalize acc

let modpow ~base:b ~exponent ~modulus =
  if is_zero modulus then raise Division_by_zero;
  if equal modulus one then zero
  else if is_zero exponent then one
  else if testbit modulus 0 then modpow_odd b exponent modulus
  else modpow_plain b exponent modulus

let rec gcd a b = if is_zero b then a else gcd b (rem a b)

(* Extended Euclid, tracking the Bezout coefficient of [a] as a signed
   value represented by a (negative, magnitude) pair since [t] only holds
   naturals. *)
let modinv a m =
  if is_zero m then None
  else begin
    let a = rem a m in
    if is_zero a then (if equal m one then Some zero else None)
    else begin
      (* new_s = old_s - q * s, on (negative, magnitude) pairs. *)
      let step q (sn, sm) (on, om) =
        let qm = mul q sm in
        if on = sn then
          if compare om qm >= 0 then (on, sub om qm) else (not on, sub qm om)
        else (on, add om qm)
      in
      let rec loop (old_r, r) (old_s, s) =
        if is_zero r then
          if equal old_r one then begin
            let neg, mag = old_s in
            let mag = rem mag m in
            Some (if neg && not (is_zero mag) then sub m mag else mag)
          end
          else None
        else begin
          let q, r2 = divmod old_r r in
          loop (r, r2) (s, step q s old_s)
        end
      in
      loop (a, m) ((false, one), (false, zero))
    end
  end

let random state ~bits =
  if bits < 0 then invalid_arg "Bigint.random";
  if bits = 0 then zero
  else begin
    let limbs = (bits + limb_bits - 1) / limb_bits in
    let r = Array.init limbs (fun _ -> Random.State.int state base) in
    let top_bits = bits - (limbs - 1) * limb_bits in
    r.(limbs - 1) <- r.(limbs - 1) land ((1 lsl top_bits) - 1);
    normalize r
  end

let small_primes = [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 43; 47; 53; 59; 61; 67; 71; 73; 79; 83; 89; 97 ]

let is_probable_prime ?(rounds = 24) state n =
  if compare n two < 0 then false
  else if List.exists (fun p -> equal n (of_int p)) small_primes then true
  else if List.exists (fun p -> is_zero (rem n (of_int p))) small_primes then false
  else begin
    (* Write n-1 = d * 2^s with d odd. *)
    let n1 = sub n one in
    let rec split d s = if testbit d 0 then (d, s) else split (shift_right d 1) (s + 1) in
    let d, s = split n1 0 in
    let witness a =
      let x = ref (modpow ~base:a ~exponent:d ~modulus:n) in
      if equal !x one || equal !x n1 then false
      else begin
        let composite = ref true in
        (try
           for _ = 1 to s - 1 do
             x := rem (mul !x !x) n;
             if equal !x n1 then begin
               composite := false;
               raise Exit
             end
           done
         with Exit -> ());
        !composite
      end
    in
    let rec trial k =
      if k = 0 then true
      else begin
        let a = add two (rem (random state ~bits:(bit_length n + 8)) (sub n (of_int 3))) in
        if witness a then false else trial (k - 1)
      end
    in
    trial rounds
  end

let random_prime state ~bits =
  if bits < 2 then invalid_arg "Bigint.random_prime";
  let rec go () =
    let c = random state ~bits in
    (* Force the top and bottom bits so the candidate is odd and full width. *)
    let c = add c (shift_left one (bits - 1)) in
    let c = if testbit c 0 then c else add c one in
    let c = if bit_length c > bits then sub c two else c in
    if is_probable_prime state c then c else go ()
  in
  go ()

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg "Bigint.of_hex: bad digit"

(* [pack ~width count digit] builds the number whose [i]-th least
   significant [width]-bit digit is [digit i], packing bits straight into
   limbs. *)
let pack ~width count digit =
  let r = Array.make (((width * count) + limb_bits - 1) / limb_bits) 0 in
  let acc = ref 0 and acc_bits = ref 0 and k = ref 0 in
  for i = 0 to count - 1 do
    acc := !acc lor (digit i lsl !acc_bits);
    acc_bits := !acc_bits + width;
    if !acc_bits >= limb_bits then begin
      r.(!k) <- !acc land limb_mask;
      incr k;
      acc := !acc lsr limb_bits;
      acc_bits := !acc_bits - limb_bits
    end
  done;
  if !acc_bits > 0 then r.(!k) <- !acc;
  normalize r

let of_hex s =
  let s = if String.length s >= 2 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X') then String.sub s 2 (String.length s - 2) else s in
  if s = "" then invalid_arg "Bigint.of_hex: empty";
  let len = String.length s in
  pack ~width:4 len (fun i -> hex_digit s.[len - 1 - i])

let to_hex a =
  if is_zero a then "0"
  else begin
    let nibbles = (bit_length a + 3) / 4 in
    String.init nibbles (fun i -> "0123456789abcdef".[bits_at a ((nibbles - 1 - i) * 4) 4])
  end

let of_bytes_be s =
  let len = String.length s in
  pack ~width:8 len (fun i -> Char.code s.[len - 1 - i])

let to_bytes_be ~len a =
  let bits = bit_length a in
  if bits > len * 8 then invalid_arg "Bigint.to_bytes_be: too short";
  let b = Bytes.make len '\000' in
  for k = 0 to ((bits + 7) / 8) - 1 do
    Bytes.set b (len - 1 - k) (Char.chr (bits_at a (k * 8) 8))
  done;
  Bytes.to_string b

let pp fmt a = Format.fprintf fmt "0x%s" (to_hex a)
