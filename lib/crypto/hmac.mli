(** HMAC-SHA256 (RFC 2104), used to derive session keys and authenticate
    traffic inside attested S-NIC tunnels. *)

(** [mac ~key msg] is the 32-byte HMAC-SHA256 tag. *)
val mac : key:string -> string -> string

(** [mac_sub ~key b ~pos ~len] is [mac ~key] of bytes [pos .. pos+len-1]
    of [b], computed in place.  Raises [Invalid_argument] if the range is
    not inside [b]. *)
val mac_sub : key:string -> bytes -> pos:int -> len:int -> string

(** [derive ~secret ~label] expands a shared secret into a 32-byte key
    bound to [label] (a one-step HKDF-like expand). *)
val derive : secret:string -> label:string -> string
