(** HMAC-SHA256 (RFC 2104), used to derive session keys and authenticate
    traffic inside attested S-NIC tunnels. *)

(** A key with both pads already absorbed: the inner and outer SHA-256
    states after [K xor ipad] and [K xor opad].  {!prepare} computes it
    once per key (two compressions, plus the key's own digest if it is
    longer than 64 bytes); each {!mac_sub} copies it and never mutates
    it, so one [key] can be shared read-only across domains.  A MAC of
    an [n]-byte message then costs [(n + 9 + 63) / 64] compressions for
    the inner hash and one for the outer, plus two context copies, with
    no pad rebuilt: a 40-byte message takes 2 compressions instead of 4. *)
type key

(** [prepare k] is the keyed state for secret [k] (any length; a key
    longer than the 64-byte block is hashed first, as RFC 2104 says). *)
val prepare : string -> key

(** [mac_sub ~key b ~pos ~len] is the 32-byte tag of bytes
    [pos .. pos+len-1] of [b] under a prepared key, computed in place.
    Raises [Invalid_argument] if the range is not inside [b]. *)
val mac_sub : key:key -> bytes -> pos:int -> len:int -> string

(** [mac ~key msg] is the 32-byte HMAC-SHA256 tag: [mac_sub] under
    [prepare key], for one-off keys. *)
val mac : key:string -> string -> string

(** [derive ~secret ~label] expands a shared secret into a 32-byte key
    bound to [label] (a one-step HKDF-like expand). *)
val derive : secret:string -> label:string -> string
