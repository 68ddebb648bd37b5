type config = {
  seed : int;
  n_nics : int;
  n_tenants : int;
  policy : Policy.t;
  rounds : int;
  packets_per_round : int;
  kill_nics : int;
  kill_nfs : int;
  bytes_per_mb : int;
}

let default_config =
  {
    seed = 42;
    n_nics = 16;
    n_tenants = 64;
    policy = Policy.First_fit;
    rounds = 3;
    packets_per_round = 600;
    kill_nics = 2;
    kill_nfs = 4;
    bytes_per_mb = 1024;
  }

type round = { index : int; traffic : Frontend.stats; failures : Failure.report option }

type report = {
  config : config;
  rounds : round list;
  initial_attested : int;
  final_attested : int;
  final_unplaced : int;
  unattested_running : int;
  scrub_failures : int;
  replacements : int;
  active_nics : int;
  alive_nics : int;
}

let run_with ?(sink = Obs.null) ?(domains = 1) config =
  let orch =
    Orchestrator.create ~sink ~domains
      {
        Orchestrator.seed = config.seed;
        n_nics = config.n_nics;
        n_tenants = config.n_tenants;
        policy = config.policy;
        bytes_per_mb = config.bytes_per_mb;
      }
  in
  let initial_attested = Orchestrator.attested_count orch in
  let fail_rng = Trace.Rng.create ~seed:(config.seed lxor 0xDEAD) in
  let gaps = config.rounds - 1 in
  let rounds = ref [] in
  let scrub_failures = ref 0 in
  for i = 0 to config.rounds - 1 do
    let traffic = Frontend.replay orch ~seed:(config.seed + (131 * i)) ~packets:config.packets_per_round in
    let failures =
      if i >= gaps then None
      else begin
        let kn = Failure.budget_for ~total:config.kill_nics ~gaps ~gap:i in
        let kf = Failure.budget_for ~total:config.kill_nfs ~gaps ~gap:i in
        if kn = 0 && kf = 0 then None
        else begin
          let r = Failure.inject orch fail_rng ~kill_nics:kn ~kill_nfs:kf in
          scrub_failures := !scrub_failures + r.Failure.scrub_failures;
          Some r
        end
      end
    in
    rounds := { index = i; traffic; failures } :: !rounds
  done;
  let nodes = Orchestrator.nodes orch in
  let report =
    {
      config;
      rounds = List.rev !rounds;
      initial_attested;
      final_attested = Orchestrator.attested_count orch;
      final_unplaced = Orchestrator.unplaced_count orch;
      unattested_running = Orchestrator.unattested_running orch;
      scrub_failures = !scrub_failures;
      replacements = Telemetry.replacements (Orchestrator.telemetry orch);
      active_nics =
        Array.fold_left (fun acc n -> if Node.alive n && Node.nf_count n > 0 then acc + 1 else acc) 0 nodes;
      alive_nics = Array.fold_left (fun acc n -> if Node.alive n then acc + 1 else acc) 0 nodes;
    }
  in
  (report, orch)

let run config = fst (run_with config)

(* Sharded fan-out: shard i is the same scenario with the derived seed,
   on its own rack and (optionally) its own recording sink.  Inner runs
   stay single-domain — the parallelism budget is spent on whole shards,
   which keeps every shard's execution identical to a solo run. *)
let run_many ?(domains = 1) ?(record = false) ~shards config =
  Par.Engine.map_seeded ~domains ~seed:config.seed ~shards (fun ~shard:_ ~seed ->
      let sink = if record then Obs.create () else Obs.null in
      let report, _orch = run_with ~sink { config with seed } in
      (report, sink))

let summary r =
  let b = Buffer.create 1024 in
  Printf.bprintf b "fleet scenario: seed=%d nics=%d tenants=%d policy=%s rounds=%d pkts/round=%d\n" r.config.seed
    r.config.n_nics r.config.n_tenants (Policy.name r.config.policy) r.config.rounds r.config.packets_per_round;
  Printf.bprintf b "  boot: %d/%d tenants placed and attested\n" r.initial_attested r.config.n_tenants;
  List.iter
    (fun round ->
      Printf.bprintf b "  round %d: injected=%d undeliverable=%d forwarded=%d dropped=%d\n" round.index
        round.traffic.Frontend.injected round.traffic.Frontend.undeliverable round.traffic.Frontend.forwarded
        round.traffic.Frontend.dropped;
      match round.failures with
      | None -> ()
      | Some f ->
        Printf.bprintf b "    failures: nics=[%s] nf-tenants=[%s] displaced=%d replaced=%d stranded=%d\n"
          (String.concat ";" (List.map string_of_int f.Failure.nics_killed))
          (String.concat ";" (List.map string_of_int f.Failure.nfs_killed))
          f.Failure.displaced f.Failure.replaced f.Failure.stranded)
    r.rounds;
  Printf.bprintf b "  end: attested=%d unplaced=%d replacements=%d active-nics=%d/%d\n" r.final_attested
    r.final_unplaced r.replacements r.active_nics r.alive_nics;
  Printf.bprintf b "  invariants: unattested-running=%d scrub-failures=%d\n" r.unattested_running r.scrub_failures;
  Buffer.contents b
