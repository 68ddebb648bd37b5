(** A simulated SGX-style host enclave.

    The paper's motivation (§1) and related-work discussion (§6) lean on
    two properties of host enclaves that this module reproduces:

    - enclave memory (the EPC) is protected from the host OS — reads
      return abort-page garbage, writes are discarded — and the enclave's
      initial contents are measured for attestation;
    - but the EPC {e cannot be the target of DMA}: a NIC must land
      packets in ordinary host memory first, where a malicious kernel can
      tamper with them before the enclave pulls them in (the SafeBricks
      weakness S-NIC avoids by processing packets on the NIC itself).

    The enclave life cycle mirrors SGX: [create] (ECREATE), [add_page]
    (EADD, extending the measurement), [init] (EINIT, sealing the
    measurement), then [enter] to run code with access to enclave
    memory. *)

type t

type host = {
  mem : Nicsim.Physmem.t; (* ordinary host RAM *)
  epc_base : int; (* the processor-reserved EPC range *)
  epc_len : int;
  mutable epc_next : int; (* EPC bump-allocation cursor *)
}

(** [make_host ~mem_bytes ~epc_bytes] carves the EPC out of the top of
    host RAM. *)
val make_host : mem_bytes:int -> epc_bytes:int -> host

(** {2 Life cycle} *)

val create : host -> t

(** [add_page t data] copies one page of initial content into the EPC and
    extends the measurement. Fails after [init] or when the EPC is
    full. *)
val add_page : t -> string -> (unit, string) result

(** [init t] finalizes the measurement; the enclave becomes runnable. *)
val init : t -> (string, string) result

val initialized : t -> bool

(** {2 Memory semantics} *)

(** Host-OS access to host RAM: inside the EPC, reads return the abort
    value 0xFF and writes are dropped; elsewhere they behave normally. *)
val os_read : host -> pos:int -> len:int -> string

val os_write : host -> pos:int -> string -> unit

(** [enter t f] runs [f ~read ~write] with enclave access to the
    enclave's own EPC pages (offsets within the enclave). Fails before
    [init]. *)
val enter :
  t -> (read:(off:int -> len:int -> string) -> write:(off:int -> string -> unit) -> 'a) -> ('a, string) result

(** {2 DMA rule} *)

(** [dma_allowed host ~pos ~len] — false when any byte falls in the EPC:
    devices cannot DMA into enclave memory. *)
val dma_allowed : host -> pos:int -> len:int -> bool
