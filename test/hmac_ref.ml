(* Test-only reference for Crypto.Hmac: the per-message HMAC-SHA256 it
   replaced, kept verbatim (both key pads rebuilt and absorbed on every
   call) over Sha256_ref, so the differential properties in
   test_crypto.ml compare against a path that shares no code with the
   keyed state. *)

let block_size = 64

let mac_sub ~key b ~pos ~len =
  let key = if String.length key > block_size then Sha256_ref.digest key else key in
  let pad c =
    Bytes.init block_size (fun i ->
        let k = if i < String.length key then Char.code key.[i] else 0 in
        Char.chr (k lxor c))
  in
  let inner = Sha256_ref.init () in
  Sha256_ref.feed_bytes inner (pad 0x36);
  Sha256_ref.feed_sub inner b ~pos ~len;
  let outer = Sha256_ref.init () in
  Sha256_ref.feed_bytes outer (pad 0x5c);
  Sha256_ref.feed outer (Sha256_ref.finalize inner);
  Sha256_ref.finalize outer

let mac ~key msg = mac_sub ~key (Bytes.unsafe_of_string msg) ~pos:0 ~len:(String.length msg)
