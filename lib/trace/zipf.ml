type t = { cdf : float array }

let create ~n ~skew =
  if n <= 0 then invalid_arg "Zipf.create: n must be positive";
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for k = 0 to n - 1 do
    acc := !acc +. (1.0 /. Float.pow (Float.of_int (k + 1)) skew);
    cdf.(k) <- !acc
  done;
  let total = !acc in
  for k = 0 to n - 1 do
    cdf.(k) <- cdf.(k) /. total
  done;
  { cdf }

let sample t rng =
  let u = Rng.float rng in
  (* Binary search for the first rank whose CDF is >= u. *)
  let lo = ref 0 and hi = ref (Array.length t.cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

let probability t k =
  if k < 0 || k >= Array.length t.cdf then invalid_arg "Zipf.probability";
  if k = 0 then t.cdf.(0) else t.cdf.(k) -. t.cdf.(k - 1)
