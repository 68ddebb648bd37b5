(** The NIC-OS-visible management API (first column of Table 1).

    [nf_create]/[nf_destroy] are what the (untrusted) NIC OS exposes to
    the host; underneath they stage the function image into on-NIC RAM by
    DMA and invoke the trusted [nf_launch]/[nf_teardown] instructions. The
    OS can refuse service (denial of service is out of scope, §4.8) but
    cannot forge a measurement: a mis-staged function fails attestation. *)

type t

(** [create ?vendor ?serial ?identity_seed machine_config] boots a fresh
    S-NIC: builds the machine in [Snic] mode with its manufactured
    identity. [identity_seed] seeds EK/AK generation — give every NIC in
    a deployment its own so their identities are cryptographically
    distinct (the default reuses one fixed seed, fine for single-NIC
    tests). *)
val boot : ?vendor:Identity.vendor -> ?serial:string -> ?identity_seed:int -> unit -> t

(** Boot against a caller-supplied machine configuration (must be Snic
    mode). *)
val boot_with : ?vendor:Identity.vendor -> ?serial:string -> ?identity_seed:int -> Nicsim.Machine.config -> t

val instructions : t -> Instructions.t
val machine : t -> Nicsim.Machine.t
val vendor : t -> Identity.vendor

(** Why [nf_create] can fail, split so a supervisor can react: a
    [Stage_fault] is a transient gray failure of the staging DMA and is
    worth retrying; [Stage_failed] is resource exhaustion; [Launch_failed]
    is the trusted instruction refusing the configuration. A silent bit
    flip during staging is *not* an error here — it produces a corrupt
    image whose measurement attestation later rejects. *)
type create_error =
  | Stage_fault of Faults.fault_event
  | Stage_failed of string
  | Launch_failed of string

val create_error_to_string : create_error -> string

(** [nf_create t config] — Table 1's
    [NF_create(net_config, core_config, ...)]. Stages the image through
    host RAM + DMA, picks free cores if [config.cores] is empty, and
    launches. Returns the running function's virtual NIC. *)
val nf_create : t -> Instructions.launch_config -> (Vnic.t, string) result

(** As [nf_create], with the typed error. *)
val nf_create_r : t -> Instructions.launch_config -> (Vnic.t, create_error) result

(** Why [nf_destroy] can fail, split so management layers can react
    differently: a double-destroy ([Already_destroyed]) is usually a
    benign race (e.g. a fleet orchestrator reaping a function it already
    tore down), while destroying an id that never existed
    ([Never_created]) is a caller bug. *)
type destroy_error =
  | Already_destroyed of int (* id was live once; teardown already ran *)
  | Never_created of int (* no function with this id was ever launched *)
  | Destroy_failed of string (* any other hardware-level refusal *)

val destroy_error_to_string : destroy_error -> string

(** [nf_destroy t ~id] — Table 1's [NF_destroy(nf_id)]. *)
val nf_destroy : t -> id:int -> (unit, destroy_error) result

val inject_packet : t -> Net.Packet.t -> (int, string) result

(** [inject_batch t frames] delivers a list of frames in order through
    {!Nicsim.Pktio.deliver_batch} and returns [(queued, rejected)] —
    the amortized entry point the fleet front-end batches through. *)
val inject_batch : t -> Bytes.t list -> int * int

(** Frames transmitted by functions, oldest first; frames that fail
    {!Net.Packet.parse} (checksums verified) are left out.  Each wire
    frame is parsed once, by the first call that sees it; every call then
    copies the history list once, so a call costs O(new frames + list
    length) and allocates nothing else when no new frame has left. *)
val transmitted : t -> Net.Packet.t list
