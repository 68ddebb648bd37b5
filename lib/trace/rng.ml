type t = { mutable state : int }

(* 62-bit-safe SplitMix64 constants (see Five_tuple.hash for the same
   trick); the generator only needs good equidistribution, not
   cryptographic strength. *)
let gamma = 0x1E3779B97F4A7C15

let create ~seed = { state = (seed * 0x3C79AC492BA7B653) land max_int }

let next_raw t =
  t.state <- (t.state + gamma) land max_int;
  let z = t.state in
  let z = (z lxor (z lsr 30)) * 0x2545F4914F6CDD1D in
  let z = (z lxor (z lsr 27)) * 0x1B873593CC9E2D51 in
  (z lxor (z lsr 31)) land max_int

let bits = next_raw

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias for large bounds. *)
  let limit = max_int - (max_int mod bound) in
  let rec go () =
    let v = next_raw t in
    if v < limit then v mod bound else go ()
  in
  go ()

let float t = Float.of_int (next_raw t land ((1 lsl 53) - 1)) /. Float.of_int (1 lsl 53)
let bool t = next_raw t land 1 = 1

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
