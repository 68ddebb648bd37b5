open Nicsim

(* Recovery tuning, in logical cycles and rounds. *)
let max_attempts = 6 (* bounded retry per placement *)
let backoff_base = 50_000 (* cycles before the first retry *)
let backoff_cap = 5_000_000 (* ceiling on a single backoff step *)
let health_floor = 40 (* breaker trips when a NIC's score sinks below *)
let fault_penalty = 7 (* score lost per device fault since last tick *)
let recovery_bonus = 15 (* score regained per quiet tick *)
let probation_rounds = 2 (* rounds a tripped NIC sits out (doubles per re-trip) *)

(* Far above any honest service time (a jumbo DPI request is ~100k
   cycles), far below Accel.hang_horizon. *)
let watchdog_budget = 50_000_000
let scrub_cost = 120_000 (* cycles charged per verified teardown scrub *)
let attest_cost = 600_000 (* cycles charged per successful stage + attest *)

(* Half a round's requests blowing their SLO marks the round bad;
   two bad rounds in a row is "sustained", not a blip. *)
let slo_bad_share = 0.5
let slo_patience = 2

type breaker = Closed | Open of { until_round : int } | Probation of { until_round : int }

type nic_state = { mutable score : int; mutable breaker : breaker; mutable trips : int; mutable last_faults : int }

(* Per-tenant breaker, driven by SLO telemetry rather than device
   faults: [bad_rounds] counts consecutive rounds in which too many of
   the tenant's requests blew their SLO. *)
type tenant_state = { mutable t_breaker : breaker; mutable t_trips : int; mutable bad_rounds : int }

type t = {
  orch : Orchestrator.t;
  rng : Trace.Rng.t;
  nics : nic_state array;
  mutable clock : int; (* logical cycle clock, shared by probes and backoff *)
  evicted_at : (int, int) Hashtbl.t; (* tenant id -> clock when displaced *)
  mutable recovery_cycles : int list; (* newest first *)
  recovery_hist : Obs.Metrics.histogram; (* same samples, in the shared registry *)
  mutable alarms : int; (* No_capacity placements — retrying cannot help *)
  mutable scrub_failures : int;
  tenant_states : (int, tenant_state) Hashtbl.t; (* tenant id -> SLO breaker *)
}

let create ~seed orch =
  {
    orch;
    rng = Trace.Rng.create ~seed:(seed lxor 0x5AFE);
    nics =
      Array.map
        (fun _ -> { score = 100; breaker = Closed; trips = 0; last_faults = 0 })
        (Orchestrator.nodes orch);
    clock = 0;
    evicted_at = Hashtbl.create 64;
    recovery_cycles = [];
    recovery_hist =
      Obs.Metrics.histogram ~help:"tenant displacement-to-reattestation latency"
        (Telemetry.registry (Orchestrator.telemetry orch))
        "fleet_recovery_ms";
    alarms = 0;
    scrub_failures = 0;
    tenant_states = Hashtbl.create 64;
  }

let clock t = t.clock
let alarms t = t.alarms
let scrub_failures t = t.scrub_failures
let breaker t ~nic = t.nics.(nic).breaker

let tenant_state t tid =
  match Hashtbl.find_opt t.tenant_states tid with
  | Some s -> s
  | None ->
    let s = { t_breaker = Closed; t_trips = 0; bad_rounds = 0 } in
    Hashtbl.replace t.tenant_states tid s;
    s

let tenant_breaker t ~tenant = (tenant_state t tenant).t_breaker
let tenant_quarantined t ~tenant =
  match (tenant_state t tenant).t_breaker with Open _ -> true | Closed | Probation _ -> false

let cycles_per_ms = 1_200_000. (* 1.2 GHz cores *)
let recovery_samples_ms t = List.rev_map (fun c -> float_of_int c /. cycles_per_ms) t.recovery_cycles

(* The shared quantile convention (Metrics.quantile_of_samples): [None]
   until there are at least 2 samples — a single displacement has no
   p99, and the old code happily interpolated garbage out of it. *)
let recovery_quantile_ms t q = Obs.Metrics.quantile_of_samples (recovery_samples_ms t) q

(* Note the displacement time so the re-attestation that eventually
   lands can be turned into a recovery-latency sample. *)
let note_evict t (tenant : Orchestrator.tenant) =
  if not (Hashtbl.mem t.evicted_at tenant.Orchestrator.tid) then
    Hashtbl.replace t.evicted_at tenant.Orchestrator.tid t.clock;
  Orchestrator.evict t.orch tenant

let note_recovered t (tenant : Orchestrator.tenant) =
  match Hashtbl.find_opt t.evicted_at tenant.Orchestrator.tid with
  | None -> ()
  | Some at ->
    let cycles = t.clock - at in
    t.recovery_cycles <- cycles :: t.recovery_cycles;
    Obs.Metrics.observe t.recovery_hist (float_of_int cycles /. cycles_per_ms);
    Hashtbl.remove t.evicted_at tenant.Orchestrator.tid

(* Bounded retry with exponential backoff + seeded jitter. Stage faults
   and attestation rejections are transient under gray failures — retry;
   No_capacity cannot improve by retrying — alarm and give up this tick. *)
let place_with_retry t tenant =
  let rec go attempt =
    match Orchestrator.replace t.orch tenant with
    | Ok () ->
      t.clock <- t.clock + attest_cost;
      note_recovered t tenant;
      Ok ()
    | Error Orchestrator.No_capacity ->
      t.alarms <- t.alarms + 1;
      Error Orchestrator.No_capacity
    | Error (Orchestrator.Create_failed (Snic.Api.Stage_fault _) | Orchestrator.Attest_failed _) as e ->
      if attempt >= max_attempts then (match e with Error err -> Error err | Ok () -> assert false)
      else begin
        Telemetry.retry (Orchestrator.telemetry t.orch);
        let backoff = min backoff_cap (backoff_base * (1 lsl (attempt - 1))) in
        let jitter = Trace.Rng.int t.rng (max 1 (backoff / 4)) in
        t.clock <- t.clock + backoff + jitter;
        go (attempt + 1)
      end
    | Error e -> Error e (* resource exhaustion / launch refusal: not transient *)
  in
  go 1

let destroy_verified t node (tenant : Orchestrator.tenant) =
  match tenant.Orchestrator.placement with
  | None -> ()
  | Some p ->
    let handle = Snic.Vnic.handle p.Orchestrator.vnic in
    (match Snic.Api.nf_destroy (Node.api node) ~id:handle.Snic.Instructions.id with
    | Ok () ->
      let mem = Machine.mem (Snic.Api.machine (Node.api node)) in
      if Physmem.is_zero mem ~pos:handle.Snic.Instructions.mem_base ~len:handle.Snic.Instructions.mem_len then begin
        let ns = Telemetry.nic (Orchestrator.telemetry t.orch) (Node.id node) in
        ns.Telemetry.scrubs_verified <- ns.Telemetry.scrubs_verified + 1
      end
      else t.scrub_failures <- t.scrub_failures + 1
    | Error _ -> t.scrub_failures <- t.scrub_failures + 1);
    t.clock <- t.clock + scrub_cost;
    note_evict t tenant

(* ---- per-tenant SLO supervision --------------------------------- *)

type qos_round = { violations : int; samples : int; over_credits : int }

(* Drain the noisy tenant's NFs — verified scrub, eviction — and open
   its breaker.  Unlike a NIC trip, the hosting NICs stay in service:
   the health signal names a tenant, so the quarantine does too. *)
let trip_tenant t ~round tid =
  let st = tenant_state t tid in
  let window = probation_rounds * (1 lsl min st.t_trips 4) in
  st.t_trips <- st.t_trips + 1;
  st.bad_rounds <- 0;
  st.t_breaker <- Open { until_round = round + window };
  Telemetry.tenant_quarantine (Orchestrator.telemetry t.orch);
  Array.iter
    (fun (tn : Orchestrator.tenant) ->
      if tn.Orchestrator.tid = tid then
        match tn.Orchestrator.placement with
        | Some p -> destroy_verified t p.Orchestrator.node tn
        | None -> ())
    (Orchestrator.tenants t.orch)

(* One SLO supervision pass: [stats] carries each tenant's round deltas
   (SLO violations, latency samples, credits consumed beyond its
   guarantee).  Sustained violation by any tenant is the health signal;
   the breaker then quarantines the *noisy* tenant — the one burning
   the most over-guarantee credit — not the NIC hosting the victim. *)
let note_qos t ~round stats =
  let tel = Orchestrator.telemetry t.orch in
  (* Breaker transitions first: quarantine windows expire into
     probation (re-place on readmission), probation expires closed. *)
  Hashtbl.iter
    (fun tid st ->
      match st.t_breaker with
      | Open { until_round } when round >= until_round ->
        st.t_breaker <- Probation { until_round = round + probation_rounds };
        Telemetry.tenant_readmission tel;
        Array.iter
          (fun (tn : Orchestrator.tenant) ->
            if tn.Orchestrator.tid = tid && tn.Orchestrator.placement = None then
              ignore (place_with_retry t tn))
          (Orchestrator.tenants t.orch)
      | Probation { until_round } when round >= until_round -> st.t_breaker <- Closed
      | _ -> ())
    t.tenant_states;
  (* Score the round. *)
  let sustained = ref false in
  List.iter
    (fun (tid, q) ->
      Telemetry.add_slo_violations tel q.violations;
      let st = tenant_state t tid in
      if not (tenant_quarantined t ~tenant:tid) then begin
        let bad =
          q.samples > 0 && float_of_int q.violations /. float_of_int q.samples > slo_bad_share
        in
        if bad then st.bad_rounds <- st.bad_rounds + 1 else st.bad_rounds <- 0;
        if st.bad_rounds >= slo_patience then sustained := true
      end)
    stats;
  (* Attribute and intervene: the noisy tenant is the top over-guarantee
     consumer this round (ties to the lowest id).  No over-user means
     nobody to blame — leave the breakers alone. *)
  if !sustained then begin
    let noisy =
      List.fold_left
        (fun acc (tid, q) ->
          if q.over_credits <= 0 || tenant_quarantined t ~tenant:tid then acc
          else
            match acc with
            | Some (_, best) when best >= q.over_credits -> acc
            | _ -> Some (tid, q.over_credits))
        None stats
    in
    match noisy with
    | Some (tid, _) ->
      trip_tenant t ~round tid;
      (* The intervention changes the contention picture; restart every
         streak so probation relapses are judged on fresh evidence. *)
      Hashtbl.iter (fun _ st -> st.bad_rounds <- 0) t.tenant_states
    | None -> ()
  end

(* Circuit breaker trip: quarantine the NIC and drain it in an orderly
   fashion — every hosted NF is destroyed (scrub verified) and its tenant
   evicted, so nothing keeps running on a NIC the control plane no longer
   trusts; the stranded-tenant pass re-places them elsewhere. *)
let trip t ~round nic_i node =
  let st = t.nics.(nic_i) in
  let window = probation_rounds * (1 lsl min st.trips 4) in
  st.trips <- st.trips + 1;
  st.breaker <- Open { until_round = round + window };
  Node.quarantine node;
  Telemetry.quarantine (Orchestrator.telemetry t.orch);
  Array.iter
    (fun (tn : Orchestrator.tenant) ->
      match tn.Orchestrator.placement with
      | Some p when Node.id p.Orchestrator.node = Node.id node -> destroy_verified t node tn
      | _ -> ())
    (Orchestrator.tenants t.orch)

(* Active health probes against live hardware: a bus heartbeat that must
   complete without a timeout, and a DMA loopback whose pattern must read
   back intact (catching both outright errors and silent corruption).
   Returns the score penalty. *)
let probe t node =
  let tel = Orchestrator.telemetry t.orch in
  let machine = Snic.Api.machine (Node.api node) in
  let penalty = ref 0 in
  Telemetry.health_probe tel;
  let bus_done = Bus.request (Machine.bus machine) ~client:0 ~now:t.clock ~cost:8 in
  if bus_done - t.clock >= Bus.timeout_penalty then begin
    Telemetry.probe_failure tel;
    penalty := !penalty + 20
  end;
  let dma = Machine.dma machine in
  let pattern = Printf.sprintf "health-probe-%08x" (t.clock land 0xFFFFFFFF) in
  let len = String.length pattern in
  (match Alloc.alloc (Machine.alloc machine) ~owner:Physmem.Nic_os len with
  | None -> () (* no scratch space: not a health signal *)
  | Some scratch ->
    let host = Dma.host_mem dma in
    Physmem.write_bytes host ~pos:4096 pattern;
    (match Dma.transfer ~checked:false dma ~bank:0 ~direction:Dma.To_nic ~nic_addr:scratch ~host_addr:4096 ~len with
    | Error _ ->
      Telemetry.probe_failure tel;
      penalty := !penalty + 20
    | Ok () ->
      if Physmem.read_bytes (Machine.mem machine) ~pos:scratch ~len <> pattern then begin
        Telemetry.probe_failure tel;
        penalty := !penalty + 20
      end);
    Alloc.free (Machine.alloc machine) scratch);
  !penalty

(* Watchdog: submit a tiny canary on each accelerator cluster a placed
   tenant owns; a completion past the budget means the engine is wedged
   (an injected hang lands ~1e9 cycles out), so the NF fails over —
   teardown releases the cluster and resets its threads. *)
let watchdog t =
  let tel = Orchestrator.telemetry t.orch in
  Array.iter
    (fun (tn : Orchestrator.tenant) ->
      match tn.Orchestrator.placement with
      | None -> ()
      | Some p -> (
        let node = p.Orchestrator.node in
        if Node.alive node then
          let handle = Snic.Vnic.handle p.Orchestrator.vnic in
          match handle.Snic.Instructions.clusters with
          | [] -> ()
          | (kind, cluster) :: _ ->
            let a = Machine.accel (Snic.Api.machine (Node.api node)) kind in
            let done_at = Accel.submit a ~cluster ~now:t.clock ~bytes:64 in
            ignore (Accel.take_garbage a);
            if done_at - t.clock > watchdog_budget then begin
              Telemetry.watchdog_failover tel;
              destroy_verified t node tn;
              ignore (place_with_retry t tn)
            end))
    (Orchestrator.tenants t.orch)

let round_quantum = 1_000_000

let tick t ~round =
  t.clock <- t.clock + round_quantum;
  let tel = Orchestrator.telemetry t.orch in
  Array.iteri
    (fun i node ->
      let st = t.nics.(i) in
      if Node.alive node then begin
        (* Passive signal: device faults logged since the last tick. *)
        let total =
          match Machine.faults (Snic.Api.machine (Node.api node)) with Some plan -> Faults.total plan | None -> 0
        in
        let fresh = total - st.last_faults in
        st.last_faults <- total;
        let penalty = (fresh * fault_penalty) + probe t node in
        st.score <- max 0 (min 100 (st.score + recovery_bonus - penalty));
        match st.breaker with
        | Closed -> if st.score < health_floor then trip t ~round i node
        | Open { until_round } ->
          if round >= until_round then begin
            Node.unquarantine node;
            st.breaker <- Probation { until_round = round + probation_rounds };
            (* Readmit with a clean slate — probation re-trips on the
               first sign of relapse anyway. *)
            st.score <- max st.score health_floor;
            Telemetry.readmission tel
          end
        | Probation { until_round } ->
          if st.score < health_floor then trip t ~round i node
          else if round >= until_round then st.breaker <- Closed
      end)
    (Orchestrator.nodes t.orch);
  watchdog t;
  (* Re-place every stranded tenant (bounded retry each) — except the
     quarantined ones, which stay drained until their window expires. *)
  Array.iter
    (fun (tn : Orchestrator.tenant) ->
      if tn.Orchestrator.placement = None && not (tenant_quarantined t ~tenant:tn.Orchestrator.tid)
      then ignore (place_with_retry t tn))
    (Orchestrator.tenants t.orch)
