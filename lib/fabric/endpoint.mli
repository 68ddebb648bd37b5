(** Attested channel endpoints: where fabric keys come from.

    An endpoint names one running NF on one NIC.  Establishing a channel
    runs the full Appendix-A attestation handshake against {e both}
    endpoints — vendor cert chain, quote signature, expected measurement
    — and derives the channel key from the two session keys, so a NIC
    whose attestation is stale, whose image was mis-staged, or whose
    identity is a clone of another NIC's can never hold a fabric key:
    establishment fails closed with a typed error. *)

type t

(** [make ?alive ?expected_measurement ~nic ~insns ~nf ()] — [alive]
    (default always-true) is polled before any handshake so a dead or
    quarantined NIC fails closed; [expected_measurement] is what the
    verifier demands from the quote (omit to accept the reported
    measurement, as local tooling does). *)
val make :
  ?alive:(unit -> bool) -> ?expected_measurement:string -> nic:int -> insns:Snic.Instructions.t -> nf:int -> unit -> t

(** Registry of EK identities seen across establishments.  One EK may
    serve many channels on its own NIC; the same EK surfacing under a
    different NIC id is a cloned identity and is refused. *)
type registry

val registry_create : unit -> registry

type error =
  | Endpoint_down of int  (** [alive] said no — dead or quarantined NIC *)
  | Attest_failed of { nic : int; reason : string }
      (** handshake refused: bad chain, bad signature, or a measurement
          that does not match the staged image *)
  | Identity_reuse of { nic : int; prior : int }
      (** this NIC presented an EK already registered to [prior] *)

val error_to_string : error -> string

(** [derive_key ~secret_src ~secret_dst ~chan ~src ~dst] — the channel
    key: an HMAC-based expand of both session keys bound to the channel
    id and both NIC ids, so distinct identities and distinct channels
    can never collide on a key. *)
val derive_key : secret_src:string -> secret_dst:string -> chan:int -> src:int -> dst:int -> string

(** [establish ?registry ?sink ?window ?buffer rng ~vendor_public ~chan
    src dst] attests both endpoints and returns the channel halves —
    [tx] for [src], [rx] for [dst].  Fails closed on the first liveness,
    attestation or identity failure. *)
val establish :
  ?registry:registry ->
  ?sink:Obs.sink ->
  ?window:int ->
  ?buffer:int ->
  ?tap:(string -> unit) ->
  Random.State.t ->
  vendor_public:Crypto.Rsa.public ->
  chan:int ->
  t ->
  t ->
  (Channel.tx * Channel.rx, error) result
