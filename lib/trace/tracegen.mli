(** Synthetic packet traces standing in for the paper's CAIDA 2016 and
    ICTF 2010 captures (§5.1): a compact event representation (flow index +
    wire size + timestamp) that experiments can replay without
    materializing full frames. *)

type event = {
  flow : int; (* index into [flows] *)
  size : int; (* wire bytes *)
  time_us : int; (* microseconds since trace start *)
}

type t = {
  flows : Net.Five_tuple.t array;
  events : event array;
}

(** ICTF-like: [n_flows] flows (default 100,000, as in §5.3) whose
    popularity is Zipf(1.1). Packet sizes follow a simple IMIX mix;
    events are spread uniformly over 60 s. *)
val ictf_like : ?n_flows:int -> seed:int -> packets:int -> unit -> t

(** CAIDA-like: new flows keep arriving for the whole duration (constant
    arrival rate plus Zipf(1.05)-reuse of old flows), which is what
    drives the Monitor NF's unbounded memory growth (Figure 7). *)
val caida_like : ?flows_per_sec:int -> seed:int -> duration_s:float -> packets:int -> unit -> t

(** Number of distinct flows seen in the first [t] microseconds. *)
val distinct_flows_before : t -> int -> int

(** Replay as parsed packets (materialized lazily). Payloads come from a
    fixed seed; the flows and event schedule are fixed by the trace. *)
val packets : t -> Net.Packet.t Seq.t

val event_count : t -> int
