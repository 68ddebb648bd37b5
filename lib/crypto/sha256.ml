(* FIPS 180-4 SHA-256 over native ints. OCaml ints are 63 bits wide, so
   sums of 32-bit words never lose their low 32 bits; only the words that
   feed a right shift or a rotation (the state and the schedule) are
   masked back to 32 bits, once each time they change. *)

let mask = 0xFFFFFFFF

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1; 0x923f82a4; 0xab1c5ed5;
     0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174;
     0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
     0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147; 0x06ca6351; 0x14292967;
     0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
     0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
     0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f; 0x682e6ff3;
     0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208; 0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

type ctx = {
  h : int array; (* 8 state words *)
  w : int array; (* 16-word rolling message schedule, scratch *)
  block : Bytes.t; (* 64-byte input block being filled *)
  mutable fill : int; (* bytes currently in [block] *)
  mutable total : int; (* total bytes absorbed *)
}

let init () =
  {
    h = [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |];
    w = Array.make 16 0;
    block = Bytes.create 64;
    fill = 0;
    total = 0;
  }

(* The schedule is scratch, so a copy gets a fresh one; only the
   buffered bytes of [block] are live. *)
let copy ctx =
  let block = Bytes.create 64 in
  Bytes.blit ctx.block 0 block 0 ctx.fill;
  { h = Array.copy ctx.h; w = Array.make 16 0; block; fill = ctx.fill; total = ctx.total }

(* A 32-bit rotation is one right shift of the word doubled into the
   bits above it: [rotr x n = ((x lor (x lsl 32)) lsr n) land mask].  The
   63-bit int drops the doubled word's top bit, which only a rotation by
   32 or more would reach.  The Σ/σ results keep junk above bit 31; they
   only feed sums, and the sums are masked. *)
let[@inline] big_sigma0 x =
  let d = x lor (x lsl 32) in
  (d lsr 2) lxor (d lsr 13) lxor (d lsr 22)

let[@inline] big_sigma1 x =
  let d = x lor (x lsl 32) in
  (d lsr 6) lxor (d lsr 11) lxor (d lsr 25)

let[@inline] ch e f g = g lxor (e land (f lxor g))
let[@inline] maj a b c = (a land (b lor c)) lor (b land c)

(* [k] has 64 entries and [w] 16; every index below is in range by
   construction. *)
let[@inline] get (a : int array) i = Array.unsafe_get a i

(* Extend the schedule by 16 words in place: [w.(i)] becomes word
   [t + 16] of FIPS 180-4 when it held word [t]. *)
let expand w =
  for i = 0 to 15 do
    let x = get w ((i + 1) land 15) and y = get w ((i + 14) land 15) in
    let dx = x lor (x lsl 32) and dy = y lor (y lsl 32) in
    let s0 = (dx lsr 7) lxor (dx lsr 18) lxor (x lsr 3) in
    let s1 = (dy lsr 17) lxor (dy lsr 19) lxor (y lsr 10) in
    Array.unsafe_set w i ((get w i + s0 + get w ((i + 9) land 15) + s1) land mask)
  done

(* Absorb the 64 bytes of [src] at [off]: 8 groups of 8 rounds, the
   working variables renamed from round to round instead of shifted, and
   the 16-word schedule extended before every second group. *)
let compress ctx src off =
  let w = ctx.w and h = ctx.h in
  for i = 0 to 15 do
    let p = off + (4 * i) in
    w.(i) <- (Bytes.get_uint16_be src p lsl 16) lor Bytes.get_uint16_be src (p + 2)
  done;
  let ra = ref h.(0) and rb = ref h.(1) and rc = ref h.(2) and rd = ref h.(3) in
  let re = ref h.(4) and rf = ref h.(5) and rg = ref h.(6) and rh = ref h.(7) in
  for q = 0 to 7 do
    let t = 8 * q and o = 8 * (q land 1) in
    if q >= 2 && o = 0 then expand w;
    let a = !ra and b = !rb and c = !rc and d = !rd and e = !re and f = !rf and g = !rg and hh = !rh in
    let t1 = hh + big_sigma1 e + ch e f g + get k (t + 0) + get w (o + 0) in
    let d = (d + t1) land mask in
    let hh = (t1 + big_sigma0 a + maj a b c) land mask in
    let t1 = g + big_sigma1 d + ch d e f + get k (t + 1) + get w (o + 1) in
    let c = (c + t1) land mask in
    let g = (t1 + big_sigma0 hh + maj hh a b) land mask in
    let t1 = f + big_sigma1 c + ch c d e + get k (t + 2) + get w (o + 2) in
    let b = (b + t1) land mask in
    let f = (t1 + big_sigma0 g + maj g hh a) land mask in
    let t1 = e + big_sigma1 b + ch b c d + get k (t + 3) + get w (o + 3) in
    let a = (a + t1) land mask in
    let e = (t1 + big_sigma0 f + maj f g hh) land mask in
    let t1 = d + big_sigma1 a + ch a b c + get k (t + 4) + get w (o + 4) in
    let hh = (hh + t1) land mask in
    let d = (t1 + big_sigma0 e + maj e f g) land mask in
    let t1 = c + big_sigma1 hh + ch hh a b + get k (t + 5) + get w (o + 5) in
    let g = (g + t1) land mask in
    let c = (t1 + big_sigma0 d + maj d e f) land mask in
    let t1 = b + big_sigma1 g + ch g hh a + get k (t + 6) + get w (o + 6) in
    let f = (f + t1) land mask in
    let b = (t1 + big_sigma0 c + maj c d e) land mask in
    let t1 = a + big_sigma1 f + ch f g hh + get k (t + 7) + get w (o + 7) in
    let e = (e + t1) land mask in
    let a = (t1 + big_sigma0 b + maj b c d) land mask in
    ra := a;
    rb := b;
    rc := c;
    rd := d;
    re := e;
    rf := f;
    rg := g;
    rh := hh
  done;
  h.(0) <- (h.(0) + !ra) land mask;
  h.(1) <- (h.(1) + !rb) land mask;
  h.(2) <- (h.(2) + !rc) land mask;
  h.(3) <- (h.(3) + !rd) land mask;
  h.(4) <- (h.(4) + !re) land mask;
  h.(5) <- (h.(5) + !rf) land mask;
  h.(6) <- (h.(6) + !rg) land mask;
  h.(7) <- (h.(7) + !rh) land mask

(* Top up a partial block first; whole blocks are then compressed
   straight from [src], and only the tail is buffered. *)
let feed_sub ctx src ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length src - len then invalid_arg "Crypto.Sha256.feed_sub";
  ctx.total <- ctx.total + len;
  let pos = ref pos and len = ref len in
  if ctx.fill > 0 then begin
    let n = min !len (64 - ctx.fill) in
    Bytes.blit src !pos ctx.block ctx.fill n;
    ctx.fill <- ctx.fill + n;
    pos := !pos + n;
    len := !len - n;
    if ctx.fill = 64 then begin
      compress ctx ctx.block 0;
      ctx.fill <- 0
    end
  end;
  while !len >= 64 do
    compress ctx src !pos;
    pos := !pos + 64;
    len := !len - 64
  done;
  if !len > 0 then begin
    Bytes.blit src !pos ctx.block ctx.fill !len;
    ctx.fill <- ctx.fill + !len
  end

let feed_bytes ctx b = feed_sub ctx b ~pos:0 ~len:(Bytes.length b)
let feed ctx s = feed_bytes ctx (Bytes.unsafe_of_string s)

(* Pad in place: 0x80, zeros, and the 64-bit big-endian bit length in
   the last 8 bytes of the final block (one extra block if fewer than 9
   bytes are free). *)
let finalize ctx =
  let b = ctx.block and fill = ctx.fill in
  Bytes.set b fill '\x80';
  if fill >= 56 then begin
    Bytes.fill b (fill + 1) (63 - fill) '\000';
    compress ctx b 0;
    Bytes.fill b 0 56 '\000'
  end
  else Bytes.fill b (fill + 1) (55 - fill) '\000';
  let bits = ctx.total * 8 in
  for i = 0 to 7 do
    Bytes.set b (56 + i) (Char.unsafe_chr ((bits lsr (8 * (7 - i))) land 0xff))
  done;
  compress ctx b 0;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    let v = ctx.h.(i) in
    Bytes.set_uint16_be out (4 * i) (v lsr 16);
    Bytes.set_uint16_be out ((4 * i) + 2) (v land 0xffff)
  done;
  Bytes.unsafe_to_string out

let digest s =
  let ctx = init () in
  feed ctx s;
  finalize ctx

let hex_digits = "0123456789abcdef"

let to_hex s =
  let out = Bytes.create (2 * String.length s) in
  for i = 0 to String.length s - 1 do
    let c = Char.code s.[i] in
    Bytes.set out (2 * i) hex_digits.[c lsr 4];
    Bytes.set out ((2 * i) + 1) hex_digits.[c land 15]
  done;
  Bytes.unsafe_to_string out
