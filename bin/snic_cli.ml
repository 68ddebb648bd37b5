(* snic_cli: run individual S-NIC experiments from the command line.

     snic_cli attacks                 — §3.3 attack matrix
     snic_cli dos [--epoch N]         — IO-bus DoS under both arbiters
     snic_cli tco [--area P --power P]— TCO sensitivity
     snic_cli tlb --entries N         — TLB cost model query
     snic_cli pack --mb X [--menu M]  — page packing for a region
     snic_cli ipc [--l2 BYTES --nfs N]— one IPC-degradation run
     snic_cli dpi --threads N --frame B — one Figure-8 point
     snic_cli timeline                — Figure 7 series as CSV
     snic_cli fleet [--nics N ...]    — seeded multi-NIC fleet scenario
     snic_cli chaos [--intensity X ...] — gray-failure storm + self-healing
     snic_cli datapath [--bytes N]    — bulk vs per-byte Physmem probe
     snic_cli fabric [--nics N ...]   — attested NIC-to-NIC fabric + failover
     snic_cli trace chaos --out t.json — record a Chrome trace of a scenario *)

open Cmdliner

(* One shared --seed flag: every trace-driven subcommand takes it, and
   the same value reproduces the same run (the generators fall back to
   their historic fixed seeds when it is omitted). *)
let seed_arg =
  Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"SEED" ~doc:"Seed for the synthetic trace generators")

let metrics_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics" ] ~docv:"FILE" ~doc:"Write a Prometheus text dump of the run's metric registry to $(docv)")

(* --domains / --shards ride on fleet, chaos and oracle.  The converter
   rejects non-positive values at parse time, so "--domains 0" is a
   cmdliner usage error (exit 124) exactly like a non-numeric value —
   the CLI contract test pins this. *)
let positive_int ~what =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "%s must be a positive integer, got %S" what s))
  in
  Arg.conv (parse, Format.pp_print_int)

let domains_arg =
  Arg.(value & opt (positive_int ~what:"DOMAINS") 1
       & info [ "domains" ] ~docv:"DOMAINS"
           ~doc:"OCaml domains to fan work across (results are byte-identical for any value; see PARALLELISM.md)")

let shards_arg =
  Arg.(value & opt (some (positive_int ~what:"SHARDS")) None
       & info [ "shards" ] ~docv:"SHARDS"
           ~doc:"Run $(docv) independent shards with Par.Seed-derived seeds, merged in shard order")

(* The merged snapshot of a sharded run: every shard's registry folded
   into one, plus the par_* rows describing the fan-out itself. *)
let merged_shard_registry ~domains ~shards results =
  let merged = Obs.Metrics.create_registry () in
  Obs.Metrics.add
    (Obs.Metrics.counter merged "par_shards_total" ~help:"Shards executed by the sharded run")
    shards;
  Obs.Metrics.add
    (Obs.Metrics.counter merged "par_domains" ~help:"Domains the shards were fanned across")
    domains;
  Array.iter
    (fun (_, sink) ->
      match Obs.registry sink with
      | Some reg ->
        Obs.Metrics.incr
          (Obs.Metrics.counter merged "par_registries_merged_total"
             ~help:"Per-shard registries folded into this snapshot");
        Obs.Metrics.merge_into ~into:merged reg
      | None -> ())
    results;
  merged

(* Wall-clock seconds on the monotonic clock. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* A scenario's failed gates go to stderr, one line each, and fail the
   run with exit 1. *)
let exit_on_failures name failures =
  List.iter (Printf.eprintf "%s: FAIL %s\n" name) failures;
  if failures <> [] then exit 1

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let attacks_cmd =
  let run () =
    List.iter
      (fun (name, corr, steal) ->
        let s (o : Attacks.outcome) = if o.Attacks.succeeded then "SUCCEEDS" else "blocked" in
        Printf.printf "%-26s corruption=%-9s theft=%-9s\n" name (s corr) (s steal))
      (Attacks.matrix ())
  in
  Cmd.v (Cmd.info "attacks" ~doc:"Run the three §3.3 attacks across all NIC modes")
    Term.(const run $ const ())

let dos_cmd =
  let epoch = Arg.(value & opt int 96 & info [ "epoch" ] ~doc:"Temporal partitioning epoch (cycles)") in
  let dead = Arg.(value & opt int 16 & info [ "dead" ] ~doc:"Dead time at end of each epoch (cycles)") in
  let run epoch dead =
    let show name (r : Attacks.dos_result) =
      Printf.printf "%-28s alone %10.0f pps, attacked %10.0f pps, retained %5.1f%%\n" name r.Attacks.alone_pps
        r.Attacks.under_attack_pps (100. *. r.Attacks.retained)
    in
    show "free-for-all" (Attacks.bus_dos Nicsim.Bus.Free_for_all);
    show
      (Printf.sprintf "temporal(%d,%d)" epoch dead)
      (Attacks.bus_dos (Nicsim.Bus.Temporal { epoch; dead }))
  in
  Cmd.v (Cmd.info "dos" ~doc:"IO-bus denial-of-service experiment") Term.(const run $ epoch $ dead)

let tco_cmd =
  let area = Arg.(value & opt float 8.89 & info [ "area" ] ~doc:"Area overhead percent") in
  let power = Arg.(value & opt float 11.45 & info [ "power" ] ~doc:"Power overhead percent") in
  let run area power =
    let s = Costmodel.Tco.summary ~area_overhead_pct:area ~power_overhead_pct:power () in
    Printf.printf "NIC $%.2f/core, S-NIC $%.2f/core, host $%.2f/core\n" s.Costmodel.Tco.nic_tco
      s.Costmodel.Tco.snic_tco s.Costmodel.Tco.host_tco;
    Printf.printf "advantage reduction %.2f%%, preserved %.1f%%\n" s.Costmodel.Tco.advantage_reduction_pct
      s.Costmodel.Tco.preserved_pct
  in
  Cmd.v (Cmd.info "tco" ~doc:"Total-cost-of-ownership model") Term.(const run $ area $ power)

let tlb_cmd =
  let entries = Arg.(required & opt (some int) None & info [ "entries" ] ~doc:"TLB entry count") in
  let run entries =
    Printf.printf "%d-entry TLB: %.4f mm^2, %.4f W (per structure, 28nm McPAT-anchored)\n" entries
      (Costmodel.Tlb_cost.area_mm2 entries) (Costmodel.Tlb_cost.power_w entries)
  in
  Cmd.v (Cmd.info "tlb" ~doc:"TLB silicon cost query") Term.(const run $ entries)

let pack_cmd =
  let mb = Arg.(required & opt (some float) None & info [ "mb" ] ~doc:"Region size in MiB") in
  let menu =
    Arg.(value & opt (enum [ ("equal", `Equal); ("flex-low", `Low); ("flex-high", `High) ]) `Equal
         & info [ "menu" ] ~doc:"Page-size menu")
  in
  let run mb menu =
    let sizes =
      match menu with
      | `Equal -> Costmodel.Page_packing.equal_2mb
      | `Low -> Costmodel.Page_packing.flex_low
      | `High -> Costmodel.Page_packing.flex_high
    in
    let bytes = Costmodel.Page_packing.mb mb in
    Printf.printf "%.2f MiB -> %d TLB entries, %.2f MiB wasted\n" mb
      (Costmodel.Page_packing.entries_for_region ~page_sizes:sizes bytes)
      (float_of_int (Costmodel.Page_packing.waste ~page_sizes:sizes [ bytes ]) /. 1048576.)
  in
  Cmd.v (Cmd.info "pack" ~doc:"Variable-page-size packing query") Term.(const run $ mb $ menu)

(* An NF short name, validated through the registry so a typo lists the
   valid names and exits through cmdliner's usage path (124). *)
let nf_conv =
  let parse s =
    match Nf.Registry.find s with
    | spec -> Ok spec.Nf.Registry.short
    | exception Invalid_argument msg -> Error (`Msg msg)
  in
  Arg.conv (parse, Format.pp_print_string)

let ipc_cmd =
  let l2 = Arg.(value & opt int (4 lsl 20) & info [ "l2" ] ~doc:"L2 size in bytes") in
  let nfs = Arg.(value & opt int 4 & info [ "nfs" ] ~doc:"Co-tenancy degree (2-16)") in
  let nf_names =
    Arg.(value & opt_all nf_conv []
         & info [ "nf" ] ~docv:"NAME" ~doc:"Colocate exactly these NFs (repeatable); overrides $(b,--nfs)")
  in
  let run l2 nfs nf_names seed =
    let names =
      match nf_names with
      | [] ->
        let pool = Uarch.Workload.names in
        List.init nfs (fun i -> List.nth pool (i mod List.length pool))
      | names -> names
    in
    let streams =
      Array.of_list
        (List.mapi (fun d n -> Uarch.Workload.rebase (Uarch.Workload.stream ~packets:800 ?seed n) ~domain:d) names)
    in
    Array.iter
      (fun (nf, d) -> Printf.printf "%-5s IPC degradation %.2f%%\n" nf d)
      (Uarch.Cpu_model.degradation ~l2_bytes:l2 streams)
  in
  Cmd.v (Cmd.info "ipc" ~doc:"One IPC-degradation colocation run (Figure 5 point)")
    Term.(const run $ l2 $ nfs $ nf_names $ seed_arg)

let dpi_cmd =
  let threads = Arg.(value & opt int 16 & info [ "threads" ] ~doc:"vDPI hardware threads") in
  let frame = Arg.(value & opt int 1500 & info [ "frame" ] ~doc:"Frame size in bytes") in
  let run threads frame =
    Printf.printf "%d threads, %dB frames: %.3f Mpps\n" threads frame
      (Uarch.Figure8.simulate ~threads ~frame_bytes:frame ())
  in
  Cmd.v (Cmd.info "dpi" ~doc:"One Figure-8 accelerator-throughput point") Term.(const run $ threads $ frame)

let covert_cmd =
  let run () =
    let show name (r : Attacks.covert_result) =
      Printf.printf "%-28s %d/%d bits decoded (%.0f%%)\n" name r.Attacks.decoded r.Attacks.bits
        (100. *. r.Attacks.accuracy)
    in
    show "free-for-all" (Attacks.bus_covert_channel Nicsim.Bus.Free_for_all);
    show "temporal(96,16)" (Attacks.bus_covert_channel (Nicsim.Bus.Temporal { epoch = 96; dead = 16 }))
  in
  Cmd.v (Cmd.info "covert" ~doc:"Bus covert-channel experiment") Term.(const run $ const ())

let probe_cmd =
  let run () =
    let show (r : Attacks.accel_probe_result) =
      Printf.printf "%-22s idle %6d cycles, victim-active %6d cycles -> %s\n"
        (if r.Attacks.shared then "shared accelerator" else "dedicated cluster")
        r.Attacks.idle_latency r.Attacks.busy_latency
        (if r.Attacks.distinguishable then "LEAKS" else "flat")
    in
    show (Attacks.accel_contention ~shared:true);
    show (Attacks.accel_contention ~shared:false)
  in
  Cmd.v (Cmd.info "probe" ~doc:"Accelerator-contention side channel") Term.(const run $ const ())

let overhead_cmd =
  let run () =
    let b = Costmodel.Overhead.compute Costmodel.Overhead.headline in
    Printf.printf "area: +%.2f%% (cores %.3f, accels %.3f, io %.3f mm^2)\n" b.Costmodel.Overhead.area_overhead_pct
      b.Costmodel.Overhead.core_area b.Costmodel.Overhead.accel_area b.Costmodel.Overhead.io_area;
    Printf.printf "power: +%.2f%% (cores %.3f, accels %.3f, io %.3f W)\n" b.Costmodel.Overhead.power_overhead_pct
      b.Costmodel.Overhead.core_power b.Costmodel.Overhead.accel_power b.Costmodel.Overhead.io_power
  in
  Cmd.v (Cmd.info "overhead" ~doc:"Headline silicon overhead (8.89%/11.45%)") Term.(const run $ const ())

let table6_cmd =
  let run () =
    print_endline "nf,text_mb,data_mb,code_mb,heap_mb,total_mb,equal,flex_low,flex_high,mur_pct";
    List.iter
      (fun (p : Memprof.Profiles.t) ->
        let e menu = Memprof.Profiles.tlb_entries p ~page_sizes:menu in
        let mur = Memprof.Mur.find p.Memprof.Profiles.name in
        Printf.printf "%s,%.2f,%.2f,%.2f,%.2f,%.2f,%d,%d,%d,%.1f\n" p.Memprof.Profiles.name
          p.Memprof.Profiles.text_mb p.Memprof.Profiles.data_mb p.Memprof.Profiles.code_mb
          p.Memprof.Profiles.heap_stack_mb (Memprof.Profiles.total_mb p)
          (e Costmodel.Page_packing.equal_2mb) (e Costmodel.Page_packing.flex_low)
          (e Costmodel.Page_packing.flex_high) mur.Memprof.Mur.mur_pct)
      Memprof.Profiles.nfs
  in
  Cmd.v (Cmd.info "table6" ~doc:"Table 6 NF memory profiles as CSV") Term.(const run $ const ())

let fig5_cmd =
  let cotenancy = Arg.(value & opt int 4 & info [ "nfs" ] ~doc:"Co-tenancy degree") in
  let packets = Arg.(value & opt int 800 & info [ "packets" ] ~doc:"Packets per stream") in
  let run cotenancy packets seed =
    print_endline "nf,cotenancy,median_pct,p1_pct,p99_pct";
    List.iter
      (fun (nf, series) ->
        List.iter
          (fun (n, (s : Uarch.Colocation.stats)) ->
            Printf.printf "%s,%d,%.3f,%.3f,%.3f\n" nf n s.Uarch.Colocation.median s.Uarch.Colocation.p1
              s.Uarch.Colocation.p99)
          series)
      (Uarch.Colocation.figure5b ~cotenancy:[ cotenancy ] ~samples:4 ~packets ?seed ())
  in
  Cmd.v (Cmd.info "fig5" ~doc:"Figure 5b IPC-degradation stats as CSV")
    Term.(const run $ cotenancy $ packets $ seed_arg)

let fig8_cmd =
  let run () =
    print_endline "threads,frame_bytes,mpps";
    List.iter
      (fun (p : Uarch.Figure8.point) ->
        Printf.printf "%d,%d,%.4f\n" p.Uarch.Figure8.threads p.Uarch.Figure8.frame_bytes p.Uarch.Figure8.mpps)
      (Uarch.Figure8.figure8 ())
  in
  Cmd.v (Cmd.info "fig8" ~doc:"Figure 8 vDPI throughput as CSV") Term.(const run $ const ())

let timeline_cmd =
  let run () =
    print_endline "t_s,used_mb,prealloc_mb";
    List.iter
      (fun (p : Memprof.Timeline.point) ->
        Printf.printf "%.2f,%.2f,%.2f\n" p.Memprof.Timeline.t_s p.Memprof.Timeline.used_mb
          p.Memprof.Timeline.prealloc_mb)
      (Memprof.Timeline.monitor ())
  in
  Cmd.v (Cmd.info "timeline" ~doc:"Figure 7 Monitor memory series as CSV") Term.(const run $ const ())

let fleet_cmd =
  let nics = Arg.(value & opt int 16 & info [ "nics" ] ~doc:"NICs in the rack") in
  let tenants = Arg.(value & opt int 64 & info [ "tenants" ] ~doc:"Tenant NFs to place") in
  let policy =
    Arg.(value & opt string "first-fit"
         & info [ "policy" ] ~docv:"POLICY" ~doc:"Placement policy: first-fit|best-fit|spread|tco-aware")
  in
  let rounds = Arg.(value & opt int 3 & info [ "rounds" ] ~doc:"Traffic rounds (failures strike between them)") in
  let packets = Arg.(value & opt int 600 & info [ "packets" ] ~doc:"Packets replayed per round") in
  let kill_nics = Arg.(value & opt int 2 & info [ "kill-nics" ] ~doc:"NIC failures injected over the run") in
  let kill_nfs = Arg.(value & opt int 4 & info [ "kill-nfs" ] ~doc:"Orderly NF kills injected over the run") in
  let csv = Arg.(value & flag & info [ "csv" ] ~doc:"Emit per-tenant and per-NIC telemetry as CSV") in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the full telemetry tree as JSON") in
  let run seed nics tenants policy rounds packets kill_nics kill_nfs csv json metrics domains shards =
    match Fleet.Policy.of_string policy with
    | Error e ->
      prerr_endline e;
      exit 2
    | Ok policy ->
      let config =
        {
          Fleet.Scenario.default_config with
          Fleet.Scenario.seed = Option.value seed ~default:Fleet.Scenario.default_config.Fleet.Scenario.seed;
          n_nics = nics;
          n_tenants = tenants;
          policy;
          rounds;
          packets_per_round = packets;
          kill_nics;
          kill_nfs;
        }
      in
      let shards = Option.value shards ~default:1 in
      if shards = 1 then begin
        (* Only record device events when someone asked for the metrics
           dump — the null sink keeps the default run overhead-free. *)
        let sink = if metrics = None then Obs.null else Obs.create () in
        let report, orch = Fleet.Scenario.run_with ~sink ~domains config in
        let telemetry = Fleet.Orchestrator.telemetry orch in
        if json then print_string (Fleet.Telemetry.to_json telemetry)
        else begin
          print_string (Fleet.Scenario.summary report);
          if csv then begin
            print_newline ();
            print_string (Fleet.Telemetry.tenants_csv telemetry);
            print_newline ();
            print_string (Fleet.Telemetry.nics_csv telemetry)
          end
        end;
        (match metrics with Some path -> write_file path (Fleet.Telemetry.prometheus telemetry) | None -> ());
        if report.Fleet.Scenario.unattested_running > 0 || report.Fleet.Scenario.scrub_failures > 0 then exit 1
      end
      else begin
        if csv || json then begin
          prerr_endline "fleet: --csv/--json apply to single-shard runs (drop --shards)";
          exit 2
        end;
        let results = Fleet.Scenario.run_many ~domains ~record:(metrics <> None) ~shards config in
        Array.iteri
          (fun i (report, _) ->
            Printf.printf "=== shard %d (seed %d) ===\n" i report.Fleet.Scenario.config.Fleet.Scenario.seed;
            print_string (Fleet.Scenario.summary report))
          results;
        (match metrics with
        | Some path ->
          write_file path (Obs.Metrics.prometheus (merged_shard_registry ~domains ~shards results))
        | None -> ());
        if
          Array.exists
            (fun (r, _) -> r.Fleet.Scenario.unattested_running > 0 || r.Fleet.Scenario.scrub_failures > 0)
            results
        then exit 1
      end
  in
  Cmd.v
    (Cmd.info "fleet" ~doc:"Seeded multi-NIC fleet scenario: attested placement, traffic, failure recovery")
    Term.(
      const run $ seed_arg $ nics $ tenants $ policy $ rounds $ packets $ kill_nics $ kill_nfs $ csv $ json
      $ metrics_arg $ domains_arg $ shards_arg)

let chaos_cmd =
  let nics = Arg.(value & opt int 8 & info [ "nics" ] ~doc:"NICs in the rack") in
  let tenants = Arg.(value & opt int 24 & info [ "tenants" ] ~doc:"Tenant NFs to place") in
  let policy =
    Arg.(value & opt string "first-fit"
         & info [ "policy" ] ~docv:"POLICY" ~doc:"Placement policy: first-fit|best-fit|spread|tco-aware")
  in
  let rounds = Arg.(value & opt int 6 & info [ "rounds" ] ~doc:"Traffic rounds under the storm") in
  let packets = Arg.(value & opt int 400 & info [ "packets" ] ~doc:"Packets replayed per round") in
  let intensity =
    Arg.(value & opt float 3.0 & info [ "intensity" ] ~doc:"Fault-rate multiplier on the storm NICs")
  in
  let stride =
    Arg.(value & opt int 3 & info [ "stride" ] ~doc:"Every k-th NIC gets the full storm (0 = none)")
  in
  let flips = Arg.(value & opt int 2 & info [ "flips" ] ~doc:"DRAM bit flips injected per round") in
  let kill_nics = Arg.(value & opt int 1 & info [ "kill-nics" ] ~doc:"Fail-stop NIC kills over the run") in
  let kill_nfs = Arg.(value & opt int 2 & info [ "kill-nfs" ] ~doc:"Orderly NF kills over the run") in
  let log = Arg.(value & flag & info [ "log" ] ~doc:"Print the replayable fault-injection log") in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the full telemetry tree as JSON") in
  let run seed nics tenants policy rounds packets intensity stride flips kill_nics kill_nfs log json metrics
      domains shards =
    match Fleet.Policy.of_string policy with
    | Error e ->
      prerr_endline e;
      exit 2
    | Ok policy ->
      let config =
        {
          Fleet.Chaos.seed = Option.value seed ~default:Fleet.Chaos.default_config.Fleet.Chaos.seed;
          n_nics = nics;
          n_tenants = tenants;
          policy;
          rounds;
          packets_per_round = packets;
          intensity;
          flaky_stride = stride;
          dram_flips_per_round = flips;
          kill_nics;
          kill_nfs;
        }
      in
      let shards = Option.value shards ~default:1 in
      if shards = 1 then begin
        let sink = if metrics = None then Obs.null else Obs.create () in
        let report, orch = Fleet.Chaos.run_with ~sink ~domains config in
        let telemetry = Fleet.Orchestrator.telemetry orch in
        if json then print_string (Fleet.Telemetry.to_json telemetry)
        else begin
          print_string (Fleet.Chaos.summary report);
          if log then begin
            print_newline ();
            print_string report.Fleet.Chaos.injection_log
          end
        end;
        (match metrics with Some path -> write_file path (Fleet.Telemetry.prometheus telemetry) | None -> ());
        exit_on_failures "chaos" (Fleet.Chaos.check report)
      end
      else begin
        if json then begin
          prerr_endline "chaos: --json applies to single-shard runs (drop --shards)";
          exit 2
        end;
        let results = Fleet.Chaos.run_many ~domains ~record:(metrics <> None) ~shards config in
        Array.iteri
          (fun i (report, _) ->
            Printf.printf "=== shard %d (seed %d) ===\n" i report.Fleet.Chaos.config.Fleet.Chaos.seed;
            print_string (Fleet.Chaos.summary report);
            if log then begin
              print_newline ();
              print_string report.Fleet.Chaos.injection_log
            end)
          results;
        (match metrics with
        | Some path ->
          write_file path (Obs.Metrics.prometheus (merged_shard_registry ~domains ~shards results))
        | None -> ());
        exit_on_failures "chaos" (List.concat_map (fun (r, _) -> Fleet.Chaos.check r) (Array.to_list results))
      end
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Gray-failure storm: fault injection across the fleet with self-healing recovery")
    Term.(
      const run $ seed_arg $ nics $ tenants $ policy $ rounds $ packets $ intensity $ stride $ flips $ kill_nics
      $ kill_nfs $ log $ json $ metrics_arg $ domains_arg $ shards_arg)

let datapath_cmd =
  let bytes = Arg.(value & opt int (1 lsl 20) & info [ "bytes" ] ~docv:"N" ~doc:"Transfer size in bytes") in
  let run bytes seed =
    if bytes <= 0 then begin
      prerr_endline "datapath: --bytes must be positive";
      exit 2
    end;
    let open Nicsim in
    let seed = Option.value seed ~default:42 in
    let rng = Trace.Rng.create ~seed in
    let payload = String.init bytes (fun _ -> Char.chr (Trace.Rng.int rng 256)) in
    let size =
      let page = Physmem.page_size in
      (* Two disjoint page-aligned regions, whatever the transfer size. *)
      (((2 * bytes) + page - 1) / page * page) + (2 * page)
    in
    let mem = Physmem.create ~size in
    let time f =
      let t0 = now () in
      f ();
      Float.max (now () -. t0) 1e-6
    in
    let r0 = Physmem.resolutions mem in
    let per_dt =
      time (fun () ->
          for i = 0 to bytes - 1 do
            Physmem.write_u8 mem i (Char.code payload.[i])
          done;
          for i = 0 to bytes - 1 do
            ignore (Physmem.read_u8 mem i)
          done)
    in
    let per_res = Physmem.resolutions mem - r0 in
    let dst = size / 2 in
    let r1 = Physmem.resolutions mem in
    let ok = ref false in
    let bulk_dt =
      time (fun () ->
          Physmem.write_bytes mem ~pos:dst payload;
          ok := String.equal (Physmem.read_bytes mem ~pos:dst ~len:bytes) payload)
    in
    let bulk_res = Physmem.resolutions mem - r1 in
    let mbs dt = float_of_int bytes *. 2. /. 1048576. /. dt in
    Printf.printf "%d bytes (seed %d)\n" bytes seed;
    Printf.printf "per-byte: %10.1f MB/s  %9d page resolutions\n" (mbs per_dt) per_res;
    Printf.printf "bulk:     %10.1f MB/s  %9d page resolutions  roundtrip %s\n" (mbs bulk_dt) bulk_res
      (if !ok then "ok" else "CORRUPT");
    if not !ok then exit 1
  in
  Cmd.v
    (Cmd.info "datapath"
       ~doc:"Quick probe of the bulk Physmem fast path vs the per-byte baseline (see bench --only datapath)")
    Term.(const run $ bytes $ seed_arg)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let oracle_cmd =
  let mode_enum = Arg.enum (List.map (fun m -> (Nicsim.Machine.mode_id m, m)) Nicsim.Machine.all_modes) in
  let mode =
    Arg.(value & opt (some mode_enum) None
         & info [ "mode" ] ~docv:"MODE" ~doc:"NIC mode: se-s|se-um|se-um-xk|agilio|bluefield|snic")
  in
  let ops = Arg.(value & opt int 10_000 & info [ "ops" ] ~docv:"N" ~doc:"Ops to generate and execute") in
  let slots = Arg.(value & opt int Oracle.Campaign.default_slots & info [ "slots" ] ~docv:"K" ~doc:"Tenant slots (1-8)") in
  let replay =
    Arg.(value & opt (some string) None
         & info [ "replay" ] ~docv:"FILE" ~doc:"Replay a recorded trace file instead of generating ops")
  in
  let dump =
    Arg.(value & opt (some string) None
         & info [ "dump" ] ~docv:"FILE" ~doc:"Write the executed (or, with --shrink, the shrunk) trace to $(docv)")
  in
  let shrink = Arg.(value & flag & info [ "shrink" ] ~doc:"Delta-debug the first violation down to a minimal trace") in
  let fabric_ops =
    Arg.(value & flag
         & info [ "fabric-ops" ]
             ~doc:"Mix attested-channel ops (chanopen/chansend/chanreplay) into the generated alphabet")
  in
  let expect =
    Arg.(value & opt (some (enum [ ("clean", `Clean); ("violations", `Violations) ])) None
         & info [ "expect" ] ~docv:"WHAT" ~doc:"Exit 1 unless the run is $(b,clean) / has $(b,violations)")
  in
  let run seed mode ops slots replay dump shrink fabric_ops expect domains shards =
    let fail msg =
      prerr_endline msg;
      exit 2
    in
    if slots < 1 || slots > 8 then fail "oracle: --slots must be in 1..8";
    if ops < 0 then fail "oracle: --ops must be non-negative";
    if fabric_ops && replay <> None then
      fail "oracle: --fabric-ops applies to generated runs (drop --replay)";
    (* --domains N with no explicit --shards means "a real parallel
       campaign": one shard per domain.  Any shard replays alone with
       --shards K --domains 1 (or via its derived seed) — PARALLELISM.md
       walks through the equivalence. *)
    let shards = match shards with Some s -> s | None -> if domains > 1 then domains else 1 in
    if shards > 1 then begin
      if replay <> None || shrink || dump <> None then
        fail "oracle: --replay/--shrink/--dump apply to single-shard runs (drop --shards/--domains)";
      match mode with
      | None -> fail "oracle: --mode is required (or use --replay FILE)"
      | Some mode ->
        let seed = Option.value seed ~default:42 in
        let reports = Oracle.Campaign.run_sharded ~domains ~slots ~fabric:fabric_ops ~mode ~ops ~seed ~shards () in
        Array.iteri
          (fun i r ->
            Printf.printf "=== shard %d (seed %s) ===\n" i
              (match r.Oracle.Campaign.seed with Some s -> string_of_int s | None -> "-");
            print_string (Oracle.Campaign.to_string r))
          reports;
        let dirty =
          Array.exists (fun (r : Oracle.Campaign.report) -> r.Oracle.Campaign.violations <> []) reports
        in
        let all_dirty =
          Array.for_all (fun (r : Oracle.Campaign.report) -> r.Oracle.Campaign.violations <> []) reports
        in
        (match expect with
        | Some `Clean when dirty ->
          prerr_endline "oracle: expected a clean run but found violations";
          exit 1
        | Some `Violations when not all_dirty ->
          prerr_endline "oracle: expected violations in every shard but found a clean one";
          exit 1
        | _ -> ());
        exit 0
    end;
    let mode, slots, ops_list, seed_used =
      match replay with
      | Some path -> (
        match Oracle.Campaign.trace_of_string (read_file path) with
        | Ok (m, s, trace) -> (m, s, trace, None)
        | Error e -> fail (Printf.sprintf "oracle: %s: %s" path e))
      | None -> (
        match mode with
        | None -> fail "oracle: --mode is required (or use --replay FILE)"
        | Some m ->
          let seed = Option.value seed ~default:42 in
          (m, slots, Oracle.Campaign.gen_ops ~fabric:fabric_ops ~slots ~ops ~seed (), Some seed))
    in
    let report = { (Oracle.Campaign.replay ~slots ~mode ops_list) with Oracle.Campaign.seed = seed_used } in
    print_string (Oracle.Campaign.to_string report);
    let final_ops =
      if not shrink then ops_list
      else begin
        match report.Oracle.Campaign.violations with
        | [] ->
          print_endline "shrink: nothing to shrink (no violations)";
          ops_list
        | v :: _ ->
          let small = Oracle.Shrink.minimize ~slots ~mode ops_list v in
          Printf.printf "shrink: %d ops -> %d ops reproducing [%s]\n" (List.length ops_list) (List.length small)
            (Oracle.Refmodel.cls_to_string v.Oracle.Refmodel.cls);
          List.iter (fun op -> print_endline ("  " ^ Oracle.Op.to_line op)) small;
          small
      end
    in
    (match dump with
    | Some path -> write_file path (Oracle.Campaign.trace_to_string ~mode ~slots final_ops)
    | None -> ());
    match (expect, report.Oracle.Campaign.violations) with
    | Some `Clean, _ :: _ ->
      prerr_endline "oracle: expected a clean run but found violations";
      exit 1
    | Some `Violations, [] ->
      prerr_endline "oracle: expected violations but the run was clean";
      exit 1
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "oracle"
       ~doc:"Model-based isolation oracle: differential fuzzing of the machine against a flat reference model")
    Term.(
      const run $ seed_arg $ mode $ ops $ slots $ replay $ dump $ shrink $ fabric_ops $ expect $ domains_arg
      $ shards_arg)

let vf_cmd =
  let nics = Arg.(value & opt int 1 & info [ "nics" ] ~docv:"N" ~doc:"Independent NICs to drive") in
  let vfs = Arg.(value & opt int 256 & info [ "vfs" ] ~docv:"K" ~doc:"Virtual functions per NIC") in
  let cycles =
    Arg.(value & opt int 32
         & info [ "cycles" ] ~docv:"C" ~doc:"Stage-1 scheduler rotations to serve (convergence depth)")
  in
  let quantum = Arg.(value & opt int 1024 & info [ "quantum" ] ~docv:"BYTES" ~doc:"Stage-1 byte quantum per weight unit") in
  (* Threshold flags default to the scenario check's own defaults; the
     ~absent strings only document them. *)
  let min_jain =
    Arg.(value & opt (some float) None
         & info [ "min-jain" ] ~absent:"0.95" ~docv:"F"
             ~doc:"Exit 1 if any NIC's weighted Jain index falls below $(docv)")
  in
  let max_err =
    Arg.(value & opt (some float) None
         & info [ "max-err" ] ~absent:"5." ~docv:"PCT" ~doc:"Exit 1 if any tenant's goodput share misses its weight share by more than $(docv)%%")
  in
  let shares = Arg.(value & flag & info [ "shares" ] ~doc:"Print the per-tenant share table of the first NIC") in
  let run seed nics vfs cycles quantum min_jain max_err shares =
    let fail msg =
      prerr_endline msg;
      exit 2
    in
    if nics < 1 then fail "vf: --nics must be >= 1";
    if vfs < 1 || vfs > 4096 then fail "vf: --vfs must be in 1..4096";
    if cycles < 1 then fail "vf: --cycles must be >= 1";
    if quantum < 1 then fail "vf: --quantum must be >= 1";
    let seed = Option.value seed ~default:42 in
    let config = { Vf.Table.default_config with Vf.Table.quantum } in
    let t0 = now () in
    let r =
      match Vf.Scenario.run ~config ~nics ~vfs ~cycles ~seed () with
      | Ok r -> r
      | Error e ->
        Printf.eprintf "vf: FAIL %s\n" (Vf.Scenario.error_to_string e);
        exit 1
    in
    let secs = now () -. t0 in
    Printf.printf "vf: %d NIC(s) x %d VFs, %d cycles, quantum %d, seed %d\n" nics vfs cycles quantum seed;
    print_string (Vf.Scenario.summary r);
    (match (shares, r.Vf.Scenario.nics) with
    | true, nr :: _ -> print_string (Obs.Fairness.summary nr.Vf.Scenario.report)
    | _ -> ());
    if secs > 0. then
      Printf.printf "throughput: %.0f scheduled pkts/sec (wall, non-deterministic)\n"
        (float_of_int r.Vf.Scenario.total_pkts /. secs);
    exit_on_failures "vf" (Vf.Scenario.check ?min_jain ?max_err_pct:max_err r)
  in
  Cmd.v
    (Cmd.info "vf"
       ~doc:"SR-IOV virtual functions: saturate every VF and check the two-stage scheduler's weighted fairness")
    Term.(const run $ seed_arg $ nics $ vfs $ cycles $ quantum $ min_jain $ max_err $ shares)

let qos_cmd =
  let tenants = Arg.(value & opt int 8 & info [ "tenants" ] ~docv:"N" ~doc:"Tenants (tenant 0 is the aggressor)") in
  let rounds = Arg.(value & opt int 8 & info [ "rounds" ] ~docv:"R" ~doc:"Traffic rounds") in
  let requests = Arg.(value & opt int 40 & info [ "requests" ] ~docv:"K" ~doc:"Victim requests per tenant per round") in
  let factor = Arg.(value & opt int 8 & info [ "factor" ] ~docv:"X" ~doc:"Aggressor load multiplier") in
  let slo = Arg.(value & opt int 2000 & info [ "slo" ] ~docv:"CYCLES" ~doc:"Victim latency SLO in cycles") in
  let starve = Arg.(value & flag & info [ "starve" ] ~doc:"Starvation variant: zero structural slack (capacity = sum of guarantees)") in
  let min_share =
    Arg.(value & opt (some float) None
         & info [ "min-share" ] ~absent:"0.9" ~docv:"F" ~doc:"Exit 1 if any victim keeps less than $(docv) of its guaranteed share")
  in
  let max_p99 =
    Arg.(value & opt (some float) None
         & info [ "max-victim-p99" ] ~docv:"CYCLES"
             ~doc:"Exit 1 if steady-state victim p99 exceeds $(docv) (default: the SLO)")
  in
  let run seed tenants rounds requests factor slo starve min_share max_p99 =
    let fail msg =
      prerr_endline msg;
      exit 2
    in
    if tenants < 2 then fail "qos: --tenants must be >= 2";
    if rounds < 1 then fail "qos: --rounds must be >= 1";
    if requests < 4 then fail "qos: --requests must be >= 4";
    if factor < 1 then fail "qos: --factor must be >= 1";
    if slo < 1 then fail "qos: --slo must be >= 1";
    let config =
      {
        Fleet.Chaos.default_qos_config with
        Fleet.Chaos.q_seed = Option.value seed ~default:Fleet.Chaos.default_qos_config.Fleet.Chaos.q_seed;
        q_tenants = tenants;
        q_rounds = rounds;
        q_requests = requests;
        q_factor = factor;
        q_slo = slo;
        q_starve = starve;
      }
    in
    let report, _sup = Fleet.Chaos.run_qos config in
    print_string (Fleet.Chaos.qos_summary report);
    exit_on_failures "qos" (Fleet.Chaos.qos_check ?min_share ?max_victim_p99:max_p99 report)
  in
  Cmd.v
    (Cmd.info "qos"
       ~doc:"Per-tenant performance isolation: QoS credits on the shared fabric, latency SLOs and noisy-neighbor quarantine")
    Term.(const run $ seed_arg $ tenants $ rounds $ requests $ factor $ slo $ starve $ min_share $ max_p99)

let ddos_cmd =
  let flows = Arg.(value & opt int 256 & info [ "flows" ] ~docv:"N" ~doc:"Benign flows") in
  let factor =
    Arg.(value & opt int 10 & info [ "factor" ] ~docv:"X" ~doc:"Spoofed SYNs per benign packet (attack intensity)")
  in
  let pkts =
    Arg.(value & opt int 4 & info [ "pkts-per-flow" ] ~docv:"K" ~doc:"Benign data packets after each handshake")
  in
  let log2_buckets =
    Arg.(value & opt int 10 & info [ "log2-buckets" ] ~docv:"B" ~doc:"Whitelist cuckoo filter: 2^$(docv) buckets x 4 slots")
  in
  let min_goodput =
    Arg.(value & opt (some float) None
         & info [ "min-goodput" ] ~absent:"0.8" ~docv:"F"
             ~doc:"Exit 1 if S-NIC-mode benign goodput under attack falls below $(docv) of the attack-free baseline")
  in
  let run seed flows factor pkts log2_buckets min_goodput =
    let fail msg =
      prerr_endline msg;
      exit 2
    in
    if flows < 1 then fail "ddos: --flows must be >= 1";
    if factor < 1 then fail "ddos: --factor must be >= 1";
    if pkts < 1 then fail "ddos: --pkts-per-flow must be >= 1";
    if log2_buckets < 1 || log2_buckets > 28 then fail "ddos: --log2-buckets must be in 1..28";
    (match min_goodput with
    | Some g when g < 0. || g > 1. -> fail "ddos: --min-goodput must be in [0,1]"
    | _ -> ());
    let config =
      {
        Fleet.Chaos.default_ddos_config with
        Fleet.Chaos.d_seed = Option.value seed ~default:Fleet.Chaos.default_ddos_config.Fleet.Chaos.d_seed;
        d_benign_flows = flows;
        d_attack_factor = factor;
        d_packets_per_flow = pkts;
        d_log2_buckets = log2_buckets;
      }
    in
    let r = Fleet.Chaos.run_ddos config in
    print_string (Fleet.Chaos.ddos_summary r);
    exit_on_failures "ddos" (Fleet.Chaos.ddos_check ?min_goodput r)
  in
  Cmd.v
    (Cmd.info "ddos"
       ~doc:"CuckooGuard under a SYN flood: SYN-cookie proxy + cuckoo-filter whitelist across all five protection modes")
    Term.(const run $ seed_arg $ flows $ factor $ pkts $ log2_buckets $ min_goodput)

let fabric_cmd =
  let nics = Arg.(value & opt int 3 & info [ "nics" ] ~docv:"N" ~doc:"NICs in the rack (proxy, tracker, spare)") in
  let flows = Arg.(value & opt int 96 & info [ "flows" ] ~docv:"F" ~doc:"Benign flows through the split chain") in
  let pkts =
    Arg.(value & opt int 4 & info [ "pkts-per-flow" ] ~docv:"K" ~doc:"Benign data packets after each handshake")
  in
  let window =
    Arg.(value & opt int 32 & info [ "window" ] ~docv:"W" ~doc:"Receiver anti-replay window (1..62)")
  in
  let buffer =
    Arg.(value & opt int 2048 & info [ "buffer" ] ~docv:"B" ~doc:"Sender replay-buffer capacity (failover state)")
  in
  let replay = Arg.(value & opt int 24 & info [ "replay" ] ~docv:"N" ~doc:"Adversarial in-window re-deliveries") in
  let reorder = Arg.(value & opt int 24 & info [ "reorder" ] ~docv:"N" ~doc:"Adversarial pre-window re-deliveries") in
  let tamper = Arg.(value & opt int 16 & info [ "tamper" ] ~docv:"N" ~doc:"Adversarial bit-flipped frames") in
  let no_kill = Arg.(value & flag & info [ "no-kill" ] ~doc:"Skip the mid-run tracker-NIC kill and failover") in
  let min_goodput =
    Arg.(value & opt (some float) None
         & info [ "min-goodput" ] ~absent:"0.9" ~docv:"F"
             ~doc:"Exit 1 if goodput with the failover falls below $(docv) of the failure-free baseline")
  in
  let run seed nics flows pkts window buffer replay reorder tamper no_kill min_goodput metrics domains shards =
    let fail msg =
      prerr_endline msg;
      exit 2
    in
    if nics < 3 then fail "fabric: --nics must be >= 3 (proxy, tracker, failover spare)";
    if flows < 1 then fail "fabric: --flows must be >= 1";
    if pkts < 1 then fail "fabric: --pkts-per-flow must be >= 1";
    if window < 1 || window > 62 then fail "fabric: --window must be in 1..62";
    if buffer < 0 then fail "fabric: --buffer must be >= 0";
    if replay < 0 || reorder < 0 || tamper < 0 then
      fail "fabric: --replay/--reorder/--tamper must be >= 0";
    (match min_goodput with
    | Some g when g < 0. || g > 1. -> fail "fabric: --min-goodput must be in [0,1]"
    | _ -> ());
    let config =
      {
        Fleet.Chaos.f_seed = Option.value seed ~default:Fleet.Chaos.default_fabric_config.Fleet.Chaos.f_seed;
        f_nics = nics;
        f_flows = flows;
        f_packets_per_flow = pkts;
        f_window = window;
        f_buffer = buffer;
        f_replay = replay;
        f_reorder = reorder;
        f_tamper = tamper;
        f_kill = not no_kill;
      }
    in
    let shards = Option.value shards ~default:1 in
    if shards = 1 then begin
      let sink = if metrics = None then Obs.null else Obs.create () in
      let r = Fleet.Chaos.run_fabric ~sink ~domains config in
      print_string (Fleet.Chaos.fabric_summary r);
      (match (metrics, Obs.registry sink) with
      | Some path, Some reg -> write_file path (Obs.Metrics.prometheus reg)
      | _ -> ());
      exit_on_failures "fabric" (Fleet.Chaos.fabric_check ?min_goodput r)
    end
    else begin
      if metrics <> None then begin
        prerr_endline "fabric: --metrics applies to single-shard runs (drop --shards)";
        exit 2
      end;
      let reports = Fleet.Chaos.run_fabric_many ~domains ~shards config in
      Array.iteri
        (fun i (r : Fleet.Chaos.fabric_report) ->
          Printf.printf "=== shard %d (seed %d) ===\n" i r.Fleet.Chaos.f_config.Fleet.Chaos.f_seed;
          print_string (Fleet.Chaos.fabric_summary r))
        reports;
      exit_on_failures "fabric"
        (List.concat_map (Fleet.Chaos.fabric_check ?min_goodput) (Array.to_list reports))
    end
  in
  Cmd.v
    (Cmd.info "fabric"
       ~doc:"Attested NIC-to-NIC fabric: cross-NIC CuckooGuard chain, mid-run failover, adversarial wire replay")
    Term.(
      const run $ seed_arg $ nics $ flows $ pkts $ window $ buffer $ replay $ reorder $ tamper $ no_kill
      $ min_goodput $ metrics_arg $ domains_arg $ shards_arg)

let trace_cmd =
  let scenario =
    Arg.(value & pos 0 (enum [ ("chaos", `Chaos); ("fleet", `Fleet) ]) `Chaos
         & info [] ~docv:"SCENARIO" ~doc:"Scenario to trace: $(b,chaos) or $(b,fleet)")
  in
  let out =
    Arg.(value & opt string "trace.json"
         & info [ "out" ] ~docv:"FILE" ~doc:"Chrome trace_event JSON output path (load it in ui.perfetto.dev)")
  in
  let run seed scenario out metrics =
    let sink = Obs.create () in
    let orch =
      match scenario with
      | `Chaos ->
        let config =
          {
            Fleet.Chaos.default_config with
            Fleet.Chaos.seed = Option.value seed ~default:Fleet.Chaos.default_config.Fleet.Chaos.seed;
          }
        in
        let report, orch = Fleet.Chaos.run_with ~sink config in
        print_string (Fleet.Chaos.summary report);
        orch
      | `Fleet ->
        let config =
          {
            Fleet.Scenario.default_config with
            Fleet.Scenario.seed = Option.value seed ~default:Fleet.Scenario.default_config.Fleet.Scenario.seed;
          }
        in
        let report, orch = Fleet.Scenario.run_with ~sink config in
        print_string (Fleet.Scenario.summary report);
        orch
    in
    write_file out (Obs.Chrome.to_json sink);
    let telemetry = Fleet.Orchestrator.telemetry orch in
    (match metrics with Some path -> write_file path (Fleet.Telemetry.prometheus telemetry) | None -> ());
    (* Self-check: the exported trace must agree with the registry's own
       accounting of itself before anyone loads it in a viewer. *)
    let events = Obs.events sink in
    let begun = ref 0 and ended = ref 0 in
    List.iter
      (fun (e : Obs.event) ->
        match e.Obs.phase with Obs.Span_begin -> incr begun | Obs.Span_end -> incr ended | Obs.Instant -> ())
      events;
    let counter name = List.assoc_opt name (Obs.Metrics.counters (Fleet.Telemetry.registry telemetry)) in
    Printf.printf "trace: %d events (%d spans) -> %s\n" (List.length events) !begun out;
    if !begun <> !ended then begin
      Printf.eprintf "trace self-check FAILED: %d span begins vs %d span ends\n" !begun !ended;
      exit 1
    end;
    if counter "obs_spans_begun_total" <> Some !begun || Obs.span_count sink <> !begun then begin
      Printf.eprintf "trace self-check FAILED: trace span count disagrees with registry counters\n";
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run a scenario with a recording sink and export a Chrome trace_event JSON (perfetto-loadable)")
    Term.(const run $ seed_arg $ scenario $ out $ metrics_arg)

let () =
  let info = Cmd.info "snic_cli" ~doc:"S-NIC (EuroSys'24) reproduction experiments" in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            attacks_cmd; dos_cmd; covert_cmd; probe_cmd; tco_cmd; overhead_cmd; tlb_cmd; pack_cmd; table6_cmd;
            ipc_cmd; dpi_cmd; fig5_cmd; fig8_cmd; timeline_cmd; fleet_cmd; chaos_cmd; datapath_cmd; oracle_cmd;
            vf_cmd; qos_cmd; ddos_cmd; fabric_cmd; trace_cmd;
          ]))
