let block_size = 64

(* The SHA-256 states after absorbing each key pad.  Built once per key
   and never fed again: every message starts from a copy. *)
type key = { inner : Sha256.ctx; outer : Sha256.ctx }

let prepare key =
  let key = if String.length key > block_size then Sha256.digest key else key in
  let pad c =
    let b = Bytes.make block_size (Char.chr c) in
    String.iteri (fun i k -> Bytes.set b i (Char.chr (Char.code k lxor c))) key;
    b
  in
  let inner = Sha256.init () in
  Sha256.feed_bytes inner (pad 0x36);
  let outer = Sha256.init () in
  Sha256.feed_bytes outer (pad 0x5c);
  { inner; outer }

let mac_sub ~key b ~pos ~len =
  let inner = Sha256.copy key.inner in
  Sha256.feed_sub inner b ~pos ~len;
  let outer = Sha256.copy key.outer in
  Sha256.feed outer (Sha256.finalize inner);
  Sha256.finalize outer

let mac ~key msg = mac_sub ~key:(prepare key) (Bytes.unsafe_of_string msg) ~pos:0 ~len:(String.length msg)
let derive ~secret ~label = mac ~key:secret (label ^ "\x01")
