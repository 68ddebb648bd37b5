(** Partial-key cuckoo filter (Fan et al., CoNEXT'14): an approximate
    flow set with fixed memory — the whitelist behind the CuckooGuard
    SYN proxy.  Like {!Count_min}, all memory is allocated at creation
    so an S-NIC preallocation is never outgrown (§4.8 fixed-reservation
    model): a saturated filter rejects inserts instead of growing.

    False positives are possible (two flows sharing a fingerprint and a
    bucket pair); false negatives are not, except after a rejected
    insert evicts a resident entry. *)

type t

(** [create ?probe ?seed ~fp_bits ~log2_buckets ()] — [2^log2_buckets]
    buckets of 4 slots, fingerprints of [fp_bits] bits ([fp_bits] in
    [2, 30], [log2_buckets] in [1, 28]).  [seed] drives kick-victim
    selection (default 0xCF17); [probe] is called with the bucket index
    on every touched bucket. *)
val create : ?probe:Types.probe -> ?seed:int -> fp_bits:int -> log2_buckets:int -> unit -> t

(** Approximate membership: no false negatives for inserted-and-kept
    entries, false-positive rate ~ [8 / 2^fp_bits] at moderate load. *)
val mem : t -> Net.Five_tuple.t -> bool

(** [insert t flow] returns [false] only when the displacement chase
    exhausts [max_kicks] — the filter is saturated and the in-hand
    fingerprint is dropped. *)
val insert : t -> Net.Five_tuple.t -> bool

(** Removes one matching fingerprint; [false] if none present. *)
val remove : t -> Net.Five_tuple.t -> bool

val occupancy : t -> int
val capacity : t -> int
val load_factor : t -> float

(** Inserts rejected because the filter was saturated. *)
val rejected : t -> int

(** Modeled on-NIC footprint: one byte-rounded fingerprint per slot,
    constant for the lifetime of the filter. *)
val memory_bytes : t -> int

(** Flip one fingerprint bit — models a cross-tenant write landing in
    filter memory (§3.3 state corruption); used by the ddos scenario to
    charge integrity loss to modes that let the write land. *)
val corrupt : t -> bit:int -> unit

(** {2 NF wrapper (short name "CKF")} *)

type nf_state

val nf_create :
  ?probe:Types.probe -> ?seed:int -> ?fp_bits:int -> ?log2_buckets:int -> unit -> nf_state

(** Tracks every packet's flow in the filter and forwards. *)
val nf : nf_state -> Types.t

val nf_filter : nf_state -> t
