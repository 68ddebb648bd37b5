let block_size = 64

(* Key pad and message go into one SHA-256 context each way, so the
   message is never copied into a [pad ^ msg] string. *)
let mac_sub ~key b ~pos ~len =
  let key = if String.length key > block_size then Sha256.digest key else key in
  let pad c =
    Bytes.init block_size (fun i ->
        let k = if i < String.length key then Char.code key.[i] else 0 in
        Char.chr (k lxor c))
  in
  let inner = Sha256.init () in
  Sha256.feed_bytes inner (pad 0x36);
  Sha256.feed_sub inner b ~pos ~len;
  let outer = Sha256.init () in
  Sha256.feed_bytes outer (pad 0x5c);
  Sha256.feed outer (Sha256.finalize inner);
  Sha256.finalize outer

let mac ~key msg = mac_sub ~key (Bytes.unsafe_of_string msg) ~pos:0 ~len:(String.length msg)
let derive ~secret ~label = mac ~key:secret (label ^ "\x01")
