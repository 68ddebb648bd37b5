(** The ZIP accelerator's functional model: an LZ77-family compressor
    with a 64 KB sliding window and hash-chain match search.

    Token stream format (self-delimiting, byte-oriented):
    - [0x00..0x7F]: a literal run of (byte + 1) bytes follows;
    - [0x80..0xFF]: a back-reference; low 7 bits encode (length - 4),
      i.e. lengths 4..131, followed by a 2-byte little-endian distance
      (1..65535).

    [decompress (compress s) = s] for every string. *)

val compress : string -> string

(** [decompress s] raises [Invalid_argument] on malformed input
    (truncated tokens, distances pointing before the start). *)
val decompress : string -> string

(** [ratio s] is [compressed length / original length] (1.0 for empty). *)
val ratio : string -> float
