(** Cumulative measurement of a network function's initial state.

    As nf_launch installs the pieces of a function it folds each one into
    a running SHA-256 (§4.6): the initial code/data image, the switching
    rules that select its packets, the resource reservations. The final
    digest is what nf_attest signs, so a NIC OS that tampers with any
    input produces a measurement the remote verifier will reject. *)

(** [of_config] builds the whole 32-byte measurement in one step — what
    a remote verifier does to compute the expected value independently.
    Each piece is absorbed as a length-prefixed, tagged encoding, so
    distinct field sequences can never collide by concatenation. *)
val of_config :
  image:string ->
  cores:int list ->
  mem_base:int ->
  mem_len:int ->
  rules:Nicsim.Pktio.rule_match list ->
  accels:(Nicsim.Accel.kind * int) list ->
  rx_bytes:int ->
  tx_bytes:int ->
  sched:Nicsim.Sched.policy ->
  string
