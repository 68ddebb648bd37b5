(* Regenerates every table and figure of the S-NIC paper's evaluation
   (§5 + appendices) from this repository's models and simulators, then
   runs Bechamel microbenchmarks of the substrate.

   Run with: dune exec bench/main.exe
   Pass --fast to shrink the Figure 5 sweeps (CI-sized). *)

let fast = Array.exists (String.equal "--fast") Sys.argv

(* --json FILE: dump every scalar metric the sections register to FILE
   as a flat JSON object, so trend tooling can track runs over time. *)
let path_after flag =
  let rec find i =
    if i >= Array.length Sys.argv - 1 then None
    else if String.equal Sys.argv.(i) flag then Some Sys.argv.(i + 1)
    else find (i + 1)
  in
  find 1

let json_path = path_after "--json"

(* --only SECTION: run a single named section (today: "datapath") — the
   CI bench-smoke job uses this to gate regressions without paying for
   the full evaluation sweep. *)
let only = path_after "--only"

(* --seed N: seed for the datapath section's payloads, so its checksum
   and count metrics are reproducible (CI pins --seed 42). *)
let seed = match path_after "--seed" with Some s -> int_of_string s | None -> 42

(* --metrics FILE: dump the seed-42 chaos run's shared Obs registry
   (device counters + fleet counters + latency histograms) as Prometheus
   text — the same registry `snic_cli trace --metrics` exports. *)
let metrics_path = path_after "--metrics"

(* --domains N: cap the par section's scaling curve (default 8, the full
   1->2->4->8 sweep the committed baseline carries — a capped run will
   miss baseline keys under --check, so CI always runs uncapped). *)
let max_domains =
  match path_after "--domains" with
  | None -> 8
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n >= 1 -> n
    | _ ->
      Printf.eprintf "bench: --domains expects a positive integer, got %s\n" s;
      Printf.eprintf
        "Usage: bench [--fast] [--only SECTION] [--domains N] [--seed N] [--json PATH] [--check BASELINE]\n";
      exit 124)

let metrics : (string * float) list ref = ref []
let metric name value = metrics := (name, value) :: !metrics

(* Failed scenario gates, collected by the sections from the same check
   functions the CLI exits on; --check reports them. *)
let gate_failures : string list ref = ref []
let gate section failures = gate_failures := !gate_failures @ List.map (( ^ ) (section ^ ": ")) failures

(* [timed f] is [f ()] and the wall-clock seconds it took, read from the
   monotonic clock. *)
let timed f =
  let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9 in
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let write_metrics () =
  match json_path with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    Printf.fprintf oc "{\n%s\n}\n"
      (String.concat ",\n" (List.map (fun (k, v) -> Printf.sprintf "  %S: %.6f" k v) (List.rev !metrics)));
    close_out oc;
    Printf.printf "wrote %d metrics to %s\n" (List.length !metrics) path

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subheader title = Printf.printf "\n-- %s --\n" title

(* ------------------------------------------------------------------ *)
(* Table 1: management API vs trusted instructions                     *)
(* ------------------------------------------------------------------ *)

let table1 () =
  header "Table 1: management APIs and trusted instructions";
  Printf.printf "%-34s %-52s\n" "Management API (NIC OS)" "Trusted instruction (hardware)";
  Printf.printf "%-34s %-52s\n" "NF_create(net,core,dpi,...)" "nf_launch: core_mask, page_table, vpp_config, accel_mask";
  Printf.printf "%-34s %-52s\n" "(n/a)" "nf_attest: sign H(initial state) + DH parameters";
  Printf.printf "%-34s %-52s\n" "NF_destroy(nf_id)" "nf_teardown: scrub + release all resources";
  print_endline "(exercised end-to-end by examples/quickstart.exe and the snic test suite)"

(* ------------------------------------------------------------------ *)
(* Tables 2-4: TLB silicon costs                                       *)
(* ------------------------------------------------------------------ *)

let table2 () =
  header "Table 2: TLB hardware cost on programmable cores (McPAT-anchored model)";
  let rows = Costmodel.Tables.table2 () in
  Printf.printf "%-28s %10s %10s %10s %10s\n" "per-core memory (entries)" "4-core" "8-core" "16-core" "48-core";
  List.iter
    (fun (label, entries) ->
      let get units field = field (Costmodel.Tables.find rows ~label ~units) in
      Printf.printf "%s (%d entries)\n" label entries;
      Printf.printf "%-28s %10.3f %10.3f %10.3f %10.3f\n" "  area (mm^2)"
        (get 4 (fun r -> r.Costmodel.Tables.area_mm2))
        (get 8 (fun r -> r.Costmodel.Tables.area_mm2))
        (get 16 (fun r -> r.Costmodel.Tables.area_mm2))
        (get 48 (fun r -> r.Costmodel.Tables.area_mm2));
      Printf.printf "%-28s %10.3f %10.3f %10.3f %10.3f\n" "  power (W)"
        (get 4 (fun r -> r.Costmodel.Tables.power_w))
        (get 8 (fun r -> r.Costmodel.Tables.power_w))
        (get 16 (fun r -> r.Costmodel.Tables.power_w))
        (get 48 (fun r -> r.Costmodel.Tables.power_w)))
    [ ("366MB/core", 183); ("512MB/core", 256); ("1024MB/core", 512) ];
  Printf.printf "paper: 4-core area 0.045 / 0.060 / 0.163 mm^2; power 0.026 / 0.035 / 0.088 W\n"

let table3 () =
  header "Table 3: TLB banks on virtualized accelerators";
  Printf.printf "%-26s %10s %10s %10s\n" "" "DPI(54e)" "ZIP(70e)" "RAID(5e)";
  List.iter
    (fun clusters ->
      let row f = List.map (fun e -> float_of_int clusters *. f e) [ 54; 70; 5 ] in
      (match row Costmodel.Tlb_cost.area_mm2 with
      | [ d; z; r ] ->
        Printf.printf "%-26s %10.3f %10.3f %10.3f\n" (Printf.sprintf "%d clusters, area mm^2" clusters) d z r
      | _ -> ());
      match row Costmodel.Tlb_cost.power_w with
      | [ d; z; r ] -> Printf.printf "%-26s %10.3f %10.3f %10.3f\n" "            power W" d z r
      | _ -> ())
    [ 16; 8; 4 ];
  Printf.printf "paper (16 clusters): area 0.074 / 0.091 / 0.050 mm^2\n"

let table4 () =
  header "Table 4: TLB banks on virtual packet pipelines and DMA";
  Printf.printf "%-30s %12s %12s\n" "" "VPP (3e)" "DMA (2e)";
  List.iter
    (fun units ->
      Printf.printf "%-30s %12.3f %12.3f\n"
        (Printf.sprintf "%d units, area mm^2" units)
        (float_of_int units *. Costmodel.Tlb_cost.area_mm2 3)
        (float_of_int units *. Costmodel.Tlb_cost.area_mm2 2);
      Printf.printf "%-30s %12.3f %12.3f\n" "        power W"
        (float_of_int units *. Costmodel.Tlb_cost.power_w 3)
        (float_of_int units *. Costmodel.Tlb_cost.power_w 2))
    [ 12; 6; 3 ];
  Printf.printf "paper (12 units): 0.037 mm^2 / 0.017 W each\n"

let table5 () =
  header "Table 5: per-core TLB cost vs page-size menu (48 cores)";
  Printf.printf "%-34s %8s %12s %10s\n" "menu" "entries" "area mm^2" "power W";
  List.iter
    (fun (name, menu) ->
      let entries = Memprof.Profiles.max_entries ~page_sizes:menu in
      Printf.printf "%-34s %8d %12.3f %10.3f\n" name entries
        (48. *. Costmodel.Tlb_cost.area_mm2 entries)
        (48. *. Costmodel.Tlb_cost.power_w entries))
    [
      ("Equal (2MB)", Costmodel.Page_packing.equal_2mb);
      ("Flex-low (128KB,2MB,64MB)", Costmodel.Page_packing.flex_low);
      ("Flex-high (2MB,32MB,128MB)", Costmodel.Page_packing.flex_high);
    ];
  Printf.printf "paper: 183/0.538/0.311, 51/0.214/0.106, 13/0.150/0.069\n"

let overhead_and_tco () =
  header "Headline silicon overhead and TCO (Section 5.2)";
  let b = Costmodel.Overhead.compute Costmodel.Overhead.headline in
  Printf.printf "added area:  cores %.3f + accels %.3f + VPP/DMA %.3f = %.3f mm^2 -> +%.2f%% (paper 8.89%%)\n"
    b.Costmodel.Overhead.core_area b.Costmodel.Overhead.accel_area b.Costmodel.Overhead.io_area
    b.Costmodel.Overhead.total_area b.Costmodel.Overhead.area_overhead_pct;
  Printf.printf "added power: cores %.3f + accels %.3f + VPP/DMA %.3f = %.3f W    -> +%.2f%% (paper 11.45%%)\n"
    b.Costmodel.Overhead.core_power b.Costmodel.Overhead.accel_power b.Costmodel.Overhead.io_power
    b.Costmodel.Overhead.total_power b.Costmodel.Overhead.power_overhead_pct;
  let s = Costmodel.Tco.summary () in
  Printf.printf "3-year TCO/core: LiquidIO $%.2f | S-NIC $%.2f | host Xeon $%.2f\n" s.Costmodel.Tco.nic_tco
    s.Costmodel.Tco.snic_tco s.Costmodel.Tco.host_tco;
  Printf.printf "TCO advantage: %.3fx -> %.3fx; reduction %.2f%% (paper 8.37%%), preserved %.1f%% (paper 91.6%%)\n"
    s.Costmodel.Tco.advantage_nic s.Costmodel.Tco.advantage_snic s.Costmodel.Tco.advantage_reduction_pct
    s.Costmodel.Tco.preserved_pct

(* ------------------------------------------------------------------ *)
(* Tables 6-8: memory profiles                                         *)
(* ------------------------------------------------------------------ *)

let table6 () =
  header "Table 6: NF memory profiles and TLB sizing";
  Printf.printf "%-5s %7s %7s %7s %9s %8s | %6s %8s %9s | %6s\n" "NF" "text" "data" "code" "heap+stk" "total"
    "Equal" "Flex-low" "Flex-high" "MUR";
  List.iter
    (fun (p : Memprof.Profiles.t) ->
      let e menu = Memprof.Profiles.tlb_entries p ~page_sizes:menu in
      let mur = Memprof.Mur.find p.Memprof.Profiles.name in
      Printf.printf "%-5s %7.2f %7.2f %7.2f %9.2f %8.2f | %6d %8d %9d | %5.1f%%\n" p.Memprof.Profiles.name
        p.Memprof.Profiles.text_mb p.Memprof.Profiles.data_mb p.Memprof.Profiles.code_mb
        p.Memprof.Profiles.heap_stack_mb (Memprof.Profiles.total_mb p)
        (e Costmodel.Page_packing.equal_2mb) (e Costmodel.Page_packing.flex_low)
        (e Costmodel.Page_packing.flex_high) mur.Memprof.Mur.mur_pct)
    Memprof.Profiles.nfs;
  print_endline "(region sizes are the paper's Rust-NF measurements; entries/MUR are recomputed)";
  subheader "our OCaml NF structures, for comparison";
  let rng = Trace.Rng.create ~seed:0xD1 in
  let n_pat = Nf.Registry.dpi_patterns ~scale:(if fast then 0.1 else 1.0) in
  let ac = Nf.Aho_corasick.build (Nf.Rulegen.dpi_patterns rng ~n:n_pat) in
  Printf.printf "DPI automaton (%d patterns): %d states, %d transitions (paper graph: 97.28 MB)\n" n_pat
    (Nf.Aho_corasick.state_count ac) (Nf.Aho_corasick.transition_count ac);
  let lpm = Nf.Lpm.create () in
  let rng = Trace.Rng.create ~seed:0x17 in
  List.iter (fun (p, l, nh) -> Nf.Lpm.insert lpm ~prefix:p ~len:l nh) (Nf.Rulegen.routes rng ~n:16_000);
  Printf.printf "LPM DIR-24-8: %.1f MB lookup tables, %d tbl8 blocks (paper heap: 64.90 MB)\n"
    (float_of_int (Nf.Lpm.table_bytes lpm) /. 1048576.)
    (Nf.Lpm.tbl8_blocks lpm)

let table7 () =
  header "Table 7: accelerator memory profiles";
  List.iter
    (fun (a : Memprof.Accel_profiles.t) ->
      Printf.printf "%-5s total %8.2f MB -> %3d TLB entries @2MB pages   [%s]\n" a.Memprof.Accel_profiles.name
        (Memprof.Accel_profiles.total_mb a) (Memprof.Accel_profiles.tlb_entries a)
        (String.concat ", "
           (List.map
              (fun (n, b) -> Printf.sprintf "%s %.4gKB" n (float_of_int b /. 1024.))
              a.Memprof.Accel_profiles.buffers)))
    Memprof.Accel_profiles.all;
  print_endline "paper: DPI 101.90 MB/54e, ZIP 132.24 MB/70e, RAID 8.13 MB/5e"

let table8 () =
  header "Table 8: memory utilization ratios";
  Printf.printf "%-5s %14s %10s %8s\n" "NF" "prealloc (MB)" "used (MB)" "MUR";
  List.iter
    (fun (r : Memprof.Mur.row) ->
      Printf.printf "%-5s %14.2f %10.2f %7.1f%%\n" r.Memprof.Mur.name r.Memprof.Mur.prealloc_mb
        r.Memprof.Mur.used_mb r.Memprof.Mur.mur_pct)
    (Memprof.Mur.table8 ());
  print_endline "paper MURs: FW 100.0, DPI 100.0, NAT 72.3, LB 30.2, LPM 100.0, Mon 68.3"

(* ------------------------------------------------------------------ *)
(* Figure 5: IPC degradation                                           *)
(* ------------------------------------------------------------------ *)

let figure5a () =
  header "Figure 5a: median IPC degradation vs L2 size (2 colocated NFs)";
  let packets = if fast then 400 else 1500 in
  let l2_sizes = if fast then [ 32 * 1024; 256 * 1024; 4 lsl 20 ] else Uarch.Colocation.default_l2_sizes in
  let results = Uarch.Colocation.figure5a ~l2_sizes ~packets () in
  let show_size s = if s >= 1 lsl 20 then Printf.sprintf "%dMB" (s lsr 20) else Printf.sprintf "%dKB" (s lsr 10) in
  Printf.printf "%-8s" "L2";
  List.iter (fun nf -> Printf.printf "%10s" nf) Uarch.Workload.names;
  print_newline ();
  List.iter
    (fun size ->
      Printf.printf "%-8s" (show_size size);
      List.iter
        (fun nf ->
          let series = List.assoc nf results in
          let s = List.assoc size series in
          Printf.printf "%9.2f%%" s.Uarch.Colocation.median)
        Uarch.Workload.names;
      print_newline ())
    l2_sizes;
  print_endline "paper: small everywhere at big caches, growing as L2 shrinks; FW/DPI/NAT worst"

let figure5b () =
  header "Figure 5b: IPC degradation vs co-tenancy (4MB L2), median [p1..p99]";
  let packets = if fast then 400 else 1500 in
  let cotenancy = if fast then [ 2; 4; 16 ] else Uarch.Colocation.default_cotenancy in
  let results = Uarch.Colocation.figure5b ~cotenancy ~samples:(if fast then 3 else 6) ~packets () in
  Printf.printf "%-6s" "NFs";
  List.iter (fun nf -> Printf.printf "%22s" nf) Uarch.Workload.names;
  print_newline ();
  List.iter
    (fun n ->
      Printf.printf "%-6d" n;
      List.iter
        (fun nf ->
          let series = List.assoc nf results in
          let s = List.assoc n series in
          Printf.printf "  %6.2f%%[%5.2f;%5.2f]" s.Uarch.Colocation.median s.Uarch.Colocation.p1
            s.Uarch.Colocation.p99)
        Uarch.Workload.names;
      print_newline ())
    cotenancy;
  let avg_at n =
    Uarch.Colocation.mean
      (List.map (fun nf -> (List.assoc n (List.assoc nf results)).Uarch.Colocation.median) Uarch.Workload.names)
  in
  List.iter
    (fun (n, paper) ->
      if List.mem n cotenancy then
        Printf.printf "average median @%2d NFs: %5.2f%%  (paper %.2f%%)\n" n (avg_at n) paper)
    [ (2, 0.24); (4, 0.93); (8, 3.41); (16, 9.44) ]

(* ------------------------------------------------------------------ *)
(* Figure 6: trusted instruction latency                               *)
(* ------------------------------------------------------------------ *)

let figure6 () =
  header "Figure 6: nf_launch / nf_attest / nf_destroy latency (1.2 GHz NIC model)";
  Printf.printf "%-5s | %-40s | %-7s | %-28s\n" "NF" "nf_launch: tlb + denylist + sha = total ms" "attest"
    "nf_destroy: allow + scrub ms";
  List.iter
    (fun (p : Memprof.Profiles.t) ->
      let l = Memprof.Instr_latency.launch p in
      let d = Memprof.Instr_latency.destroy p in
      Printf.printf "%-5s | %7.4f + %6.4f + %8.2f = %8.2f | %6.2f | %6.4f + %6.2f = %7.2f\n"
        p.Memprof.Profiles.name l.Memprof.Instr_latency.tlb_setup_ms l.Memprof.Instr_latency.denylist_ms
        l.Memprof.Instr_latency.sha_ms l.Memprof.Instr_latency.total_ms Memprof.Instr_latency.attest_ms
        d.Memprof.Instr_latency.allowlist_ms d.Memprof.Instr_latency.scrub_ms d.Memprof.Instr_latency.total_ms)
    Memprof.Profiles.nfs;
  Printf.printf "paper anchors: LB sha 29.62ms, Mon sha 763.52ms, attest 5.6ms, Mon scrub ~54ms\n";
  let buf = String.make (8 lsl 20) 'x' in
  let _, dt = timed (fun () -> Crypto.Sha256.digest buf) in
  Printf.printf "(our software SHA-256 on this host: %.0f MB/s; model uses the NIC engine's %.0f MB/s)\n" (8. /. dt)
    Memprof.Instr_latency.sha_mb_per_s

(* ------------------------------------------------------------------ *)
(* Figure 7: Monitor memory timeline                                   *)
(* ------------------------------------------------------------------ *)

let figure7 () =
  header "Figure 7: Monitor memory usage over time (150s CAIDA-like replay)";
  let series = Memprof.Timeline.monitor () in
  let prealloc = match series with p :: _ -> p.Memprof.Timeline.prealloc_mb | [] -> 0. in
  let width = 60 in
  List.iter
    (fun (p : Memprof.Timeline.point) ->
      if Float.rem p.Memprof.Timeline.t_s 12.5 < 0.6 || p.Memprof.Timeline.used_mb > prealloc *. 0.95 then begin
        let bar = int_of_float (p.Memprof.Timeline.used_mb /. prealloc *. float_of_int width) in
        Printf.printf "%6.1fs |%s%s| %6.1f MB\n" p.Memprof.Timeline.t_s
          (String.make (min bar width) '#')
          (String.make (max 0 (width - bar)) ' ')
          p.Memprof.Timeline.used_mb
      end)
    series;
  Printf.printf "preallocation watermark: %.2f MB (flat line); steady state: %.2f MB; peak: %.2f MB\n" prealloc
    (Memprof.Timeline.final_mb series) (Memprof.Timeline.peak_mb series);
  Printf.printf "resize spikes visible: %d (paper: several HashMap doublings + hugepage init)\n"
    (Memprof.Timeline.spike_count series)

(* ------------------------------------------------------------------ *)
(* Figure 8: DPI accelerator throughput                                *)
(* ------------------------------------------------------------------ *)

let figure8 () =
  header "Figure 8: vDPI throughput vs cluster size and frame size";
  Printf.printf "%-10s %8s %8s %8s %8s\n" "threads" "64B" "512B" "1.5KB" "9KB";
  List.iter
    (fun threads ->
      Printf.printf "%-10d" threads;
      List.iter
        (fun frame -> Printf.printf " %7.3f" (Uarch.Figure8.simulate ~threads ~frame_bytes:frame ()))
        Trace.Flowgen.figure8_frame_sizes;
      print_newline ())
    [ 16; 32; 48 ];
  print_endline "(Mpps; small frames producer-bound ~1.07 Mpps flat, jumbo frames scale with threads)";
  subheader "extension: the same sweep for the ZIP and RAID engines";
  List.iter
    (fun kind ->
      Printf.printf "%-10s" (Nicsim.Accel.kind_name kind);
      List.iter
        (fun frame -> Printf.printf " %7.3f" (Uarch.Figure8.simulate ~kind ~threads:32 ~frame_bytes:frame ()))
        Trace.Flowgen.figure8_frame_sizes;
      print_newline ())
    [ Nicsim.Accel.Zip; Nicsim.Accel.Raid ];
  print_endline "(32 threads; RAID's cheap per-byte XOR keeps even jumbo frames producer-bound)"

(* ------------------------------------------------------------------ *)
(* §3.3 attacks                                                        *)
(* ------------------------------------------------------------------ *)

let attacks_section () =
  header "Section 3.3: concrete attacks across NIC architectures";
  Printf.printf "%-26s | %-16s | %-16s\n" "NIC" "pkt corruption" "ruleset theft";
  List.iter
    (fun (name, corr, steal) ->
      let s (o : Attacks.outcome) = if o.Attacks.succeeded then "SUCCEEDS" else "blocked" in
      Printf.printf "%-26s | %-16s | %-16s\n" name (s corr) (s steal))
    (Attacks.matrix ());
  let ffa = Attacks.bus_dos Nicsim.Bus.Free_for_all in
  let tp = Attacks.bus_dos (Nicsim.Bus.Temporal { epoch = 96; dead = 16 }) in
  Printf.printf "bus DoS: free-for-all retains %.1f%% of victim throughput; temporal partitioning %.1f%%\n"
    (100. *. ffa.Attacks.retained) (100. *. tp.Attacks.retained);
  let cc_ffa = Attacks.bus_covert_channel Nicsim.Bus.Free_for_all in
  let cc_tp = Attacks.bus_covert_channel (Nicsim.Bus.Temporal { epoch = 96; dead = 16 }) in
  Printf.printf "bus covert channel (64-bit message): free-for-all decodes %.0f%%, temporal %.0f%% (chance = 50%%)\n"
    (100. *. cc_ffa.Attacks.accuracy) (100. *. cc_tp.Attacks.accuracy);
  let ac_sh = Attacks.accel_contention ~shared:true in
  let ac_cl = Attacks.accel_contention ~shared:false in
  Printf.printf
    "accelerator probe: shared engine %d -> %d cycles when victim active (LEAKS); dedicated cluster %d -> %d (flat)\n"
    ac_sh.Attacks.idle_latency ac_sh.Attacks.busy_latency ac_cl.Attacks.idle_latency ac_cl.Attacks.busy_latency;
  subheader "deployment comparison: host-enclave NF (SafeBricks) vs S-NIC (the paper's motivation)";
  Format.printf "  %a@." Attacks.Safebricks.pp_outcome (Attacks.Safebricks.safebricks_deployment ());
  Format.printf "  %a@." Attacks.Safebricks.pp_outcome (Attacks.Safebricks.snic_deployment ())

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation_bus () =
  subheader "ablation: bus arbitration policy (DoS resilience vs baseline cost)";
  Printf.printf "%-34s %12s %14s %10s\n" "policy" "alone kpps" "attacked kpps" "retained";
  let show name (r : Attacks.dos_result) =
    Printf.printf "%-34s %12.0f %14.0f %9.1f%%\n" name (r.Attacks.alone_pps /. 1e3)
      (r.Attacks.under_attack_pps /. 1e3) (100. *. r.Attacks.retained)
  in
  show "free-for-all" (Attacks.bus_dos Nicsim.Bus.Free_for_all);
  List.iter
    (fun (epoch, dead) ->
      show
        (Printf.sprintf "temporal epoch=%d dead=%d" epoch dead)
        (Attacks.bus_dos (Nicsim.Bus.Temporal { epoch; dead })))
    [ (96, 16); (192, 32); (384, 64) ]

let ablation_cache () =
  subheader "ablation: cache isolation mode (two side channels)";
  (* Channel 1 (prime+probe): the victim's activity evicts the attacker's
     primed lines. Channel 2 (flush+reload analog): the attacker touches
     addresses the victim may have cached and observes hits — the leak a
     soft, CAT-style write-only partition keeps (§4.2). *)
  let prime_probe mode =
    let run victim_active =
      let c = Nicsim.Cache.create ~sets:64 ~ways:8 ~line_bits:6 ~mode ~domains:2 in
      for i = 0 to 511 do
        ignore (Nicsim.Cache.access c ~domain:0 ~addr:(i * 64))
      done;
      if victim_active then
        for i = 0 to 1023 do
          ignore (Nicsim.Cache.access c ~domain:1 ~addr:(0x800000 + (i * 64)))
        done;
      let misses = ref 0 in
      for i = 0 to 511 do
        if Nicsim.Cache.access c ~domain:0 ~addr:(i * 64) = Nicsim.Cache.Miss then incr misses
      done;
      !misses
    in
    run true - run false
  in
  let reload mode =
    let run victim_active =
      let c = Nicsim.Cache.create ~sets:64 ~ways:8 ~line_bits:6 ~mode ~domains:2 in
      (* The victim touches a region the attacker can also name (e.g. a
         shared library page). *)
      if victim_active then
        for i = 0 to 63 do
          ignore (Nicsim.Cache.access c ~domain:1 ~addr:(0x400000 + (i * 64)))
        done;
      let hits = ref 0 in
      for i = 0 to 63 do
        if Nicsim.Cache.access c ~domain:0 ~addr:(0x400000 + (i * 64)) = Nicsim.Cache.Hit then incr hits
      done;
      !hits
    in
    run true - run false
  in
  Printf.printf "%-28s %18s %18s\n" "mode" "prime+probe" "reload-hit";
  List.iter
    (fun (name, mode) ->
      let pp = prime_probe mode and rl = reload mode in
      Printf.printf "%-28s %12d %5s %12d %5s\n" name pp
        (if pp = 0 then "ok" else "LEAK")
        rl
        (if rl = 0 then "ok" else "LEAK"))
    [
      ("shared (commodity)", Nicsim.Cache.Shared);
      ("soft / CAT-like", Nicsim.Cache.Soft);
      ("hard (S-NIC)", Nicsim.Cache.Hard);
      ("SecDCP dynamic", Nicsim.Cache.Secdcp);
    ];
  print_endline "(soft partitioning closes the eviction channel but keeps the reload channel: insufficient)"

let ablation_pages () =
  subheader "ablation: page-size menu (entries vs wasted DRAM, all six NFs)";
  Printf.printf "%-30s %12s %14s\n" "menu" "max entries" "total waste MB";
  List.iter
    (fun (name, menu) ->
      let entries = Memprof.Profiles.max_entries ~page_sizes:menu in
      let waste =
        List.fold_left
          (fun acc p -> acc + Costmodel.Page_packing.waste ~page_sizes:menu (Memprof.Profiles.regions p))
          0 Memprof.Profiles.nfs
      in
      Printf.printf "%-30s %12d %14.2f\n" name entries (float_of_int waste /. 1048576.))
    [
      ("Equal (2MB)", Costmodel.Page_packing.equal_2mb);
      ("Flex-low (128KB,2MB,64MB)", Costmodel.Page_packing.flex_low);
      ("Flex-high (2MB,32MB,128MB)", Costmodel.Page_packing.flex_high);
    ]

let ablation_isolation_decomposition () =
  subheader "ablation: where the Figure-5 degradation comes from (8 NFs @4MB L2)";
  let names = [ "FW"; "DPI"; "NAT"; "LB"; "LPM"; "Mon"; "FW"; "DPI" ] in
  let streams =
    Array.of_list
      (List.mapi
         (fun d n -> Uarch.Workload.rebase (Uarch.Workload.stream ~packets:(if fast then 400 else 1200) n) ~domain:d)
         names)
  in
  let run isolation = Uarch.Cpu_model.run ~l2_bytes:(4 lsl 20) ~isolation streams in
  let base = run Uarch.Cpu_model.Baseline in
  let cache_only = run Uarch.Cpu_model.Cache_only in
  let bus_only = run Uarch.Cpu_model.Bus_only in
  let full = run Uarch.Cpu_model.Snic in
  Printf.printf "%-6s %16s %16s %16s\n" "NF" "cache part. only" "bus part. only" "full S-NIC";
  Array.iteri
    (fun d (b : Uarch.Cpu_model.domain_result) ->
      let deg (r : Uarch.Cpu_model.domain_result array) =
        100. *. (1. -. (r.(d).Uarch.Cpu_model.ipc /. b.Uarch.Cpu_model.ipc))
      in
      Printf.printf "%-6s %15.2f%% %15.2f%% %15.2f%%\n" b.Uarch.Cpu_model.nf (deg cache_only) (deg bus_only)
        (deg full))
    base;
  print_endline "(most of the cost is bus temporal partitioning; cache slicing matters for the big working sets)"

let ablation_schedulers () =
  subheader "ablation: VPP packet scheduler (1000-packet backlog, 10% privileged traffic)";
  let open Nicsim in
  let backlog () =
    let rng = Trace.Rng.create ~seed:0x5C in
    List.init 1000 (fun i ->
        let privileged = Trace.Rng.int rng 10 = 0 in
        let flow = Trace.Rng.int rng 16 in
        let bytes = if flow < 4 then 1400 else 100 in
        ( { Sched.flow; bytes; level = (if privileged then 0 else 1); weight = (if flow < 2 then 4 else 1) },
          (i, privileged, bytes) ))
  in
  Printf.printf "%-22s %26s %26s\n" "policy" "mean privileged position" "small-pkt share of first half";
  List.iter
    (fun policy ->
      let s = Sched.create policy in
      List.iter (fun (meta, x) -> Sched.enqueue s meta x) (backlog ());
      let order = Sched.drain s in
      let prio_pos_sum = ref 0 and prio_n = ref 0 and small_first_half = ref 0 and small_total = ref 0 in
      List.iteri
        (fun pos (_, privileged, bytes) ->
          if privileged then begin
            prio_pos_sum := !prio_pos_sum + pos;
            incr prio_n
          end;
          if bytes = 100 then begin
            incr small_total;
            if pos < 500 then incr small_first_half
          end)
        order;
      Printf.printf "%-22s %26.1f %25.1f%%\n" (Sched.policy_name policy)
        (float_of_int !prio_pos_sum /. float_of_int (max 1 !prio_n))
        (100. *. float_of_int !small_first_half /. float_of_int (max 1 !small_total)))
    [ Sched.Fifo; Sched.Priority { levels = 2 }; Sched.Drr { quantum = 512 }; Sched.Wfq ]

let ablation_underutilization () =
  subheader "ablation: the 4.8 underutilization trade-off (24h diurnal load)";
  Printf.printf "%-34s %14s %8s\n" "provisioning policy" "avg utilization" "churn";
  List.iter
    (fun policy ->
      let series = Memprof.Underutil.simulate policy in
      Printf.printf "%-34s %13.1f%% %8d\n" (Memprof.Underutil.policy_name policy)
        (100. *. Memprof.Underutil.avg_utilization series)
        (Memprof.Underutil.churn series policy))
    [
      Memprof.Underutil.Static_peak;
      Memprof.Underutil.Elastic { instance_mb = 120. };
      Memprof.Underutil.Elastic { instance_mb = 60. };
      Memprof.Underutil.Elastic { instance_mb = 30. };
      Memprof.Underutil.Dynamic;
    ];
  print_endline "(creating/destroying fixed-size instances recovers most of the utilization";
  print_endline " that S-NIC's no-resize rule forfeits, at the cost of launch/teardown churn)"

let ablation_denylist () =
  subheader "ablation: denylist as bitmap vs page-table walk (§4.1 footnote)";
  let dram = 1 lsl 30 in
  let pages = dram / 4096 in
  Printf.printf "bitmap: %d KB of dedicated SRAM, 1-cycle check per TLB install\n" (pages / 8 / 1024);
  Printf.printf "EPT-style walk: no dedicated SRAM, ~4 DRAM references (~%d cycles) per TLB install\n" (4 * 88);
  print_endline "(the paper picks the walk: TLB installs are rare events, die area is precious)"

let ablation_translation () =
  subheader "ablation: locked variable-size TLB vs per-core page table (§4.2 alternate design)";
  Printf.printf "%-5s %22s %26s %22s\n" "NF" "TLB entries (Equal)" "PT pages (4KB walker)" "translate cost";
  List.iter
    (fun (p : Memprof.Profiles.t) ->
      let entries = Memprof.Profiles.tlb_entries p ~page_sizes:Costmodel.Page_packing.equal_2mb in
      let bytes = Costmodel.Page_packing.mb (Memprof.Profiles.total_mb p) in
      let pt_pages = Nicsim.Pagetable.table_pages_for ~vaddr:0 ~len:bytes in
      Printf.printf "%-5s %22d %26d %13s/%8s\n" p.Memprof.Profiles.name entries pt_pages "0cy"
        (Printf.sprintf "%dxDRAM" Nicsim.Pagetable.walk_dram_refs))
    Memprof.Profiles.nfs;
  Printf.printf "TLB: zero-latency hits, no misses by construction; +%.3f mm^2 per core at 183 entries\n"
    (Costmodel.Tlb_cost.area_mm2 183);
  print_endline "page table: no CAM silicon, but every TLB refill costs 2 DRAM walks and the tables live in the";
  print_endline "function's RAM budget — the paper picks locked TLBs ('a typical implementation will not";
  print_endline "associate a page table pointer with a programmable core')"

(* ------------------------------------------------------------------ *)
(* Chaos: recovery latency and goodput under gray failures             *)
(* ------------------------------------------------------------------ *)

let chaos_section () =
  header "Gray-failure chaos: recovery latency and goodput under faults";
  Printf.printf "%-8s %8s %8s %8s %8s %9s %6s %7s %11s\n" "seed" "faults" "p50 ms" "p90 ms" "p99 ms" "goodput"
    "quar" "readmit" "unattested";
  let seeds = if fast then [ 42; 1337 ] else [ 42; 1337; 20240 ] in
  List.iter
    (fun seed ->
      (* Record device events only when --metrics asked for the dump; the
         null sink keeps the benchmark itself overhead-free. *)
      let sink = if seed = 42 && metrics_path <> None then Obs.create () else Obs.null in
      let r, orch = Fleet.Chaos.run_with ~sink { Fleet.Chaos.default_config with Fleet.Chaos.seed } in
      (match (metrics_path, Obs.is_null sink) with
      | Some path, false ->
        let oc = open_out path in
        output_string oc (Fleet.Telemetry.prometheus (Fleet.Orchestrator.telemetry orch));
        close_out oc;
        Printf.printf "(wrote seed-%d registry dump to %s)\n" seed path
      | _ -> ());
      gate (Printf.sprintf "chaos.seed%d" seed) (Fleet.Chaos.check r);
      let q = Fleet.Chaos.quantile_str in
      Printf.printf "%-8d %8d %8s %8s %8s %9.4f %6d %7d %11d\n" seed r.Fleet.Chaos.total_faults
        (q r.Fleet.Chaos.recovery_p50) (q r.Fleet.Chaos.recovery_p90) (q r.Fleet.Chaos.recovery_p99)
        r.Fleet.Chaos.goodput r.Fleet.Chaos.quarantines r.Fleet.Chaos.readmissions
        r.Fleet.Chaos.unattested_running;
      let m name v = metric (Printf.sprintf "chaos.seed%d.%s" seed name) v in
      (* A quantile that does not exist (< 2 samples) is omitted from the
         JSON rather than recorded as a fabricated 0.0. *)
      let mq name v = match v with None -> () | Some v -> m name v in
      mq "recovery_p50_ms" r.Fleet.Chaos.recovery_p50;
      mq "recovery_p90_ms" r.Fleet.Chaos.recovery_p90;
      mq "recovery_p99_ms" r.Fleet.Chaos.recovery_p99;
      m "recovery_samples" (float_of_int (List.length r.Fleet.Chaos.recovery_ms));
      m "goodput" r.Fleet.Chaos.goodput;
      m "total_faults" (float_of_int r.Fleet.Chaos.total_faults);
      m "quarantines" (float_of_int r.Fleet.Chaos.quarantines);
      m "unattested_running" (float_of_int r.Fleet.Chaos.unattested_running);
      m "scrub_failures" (float_of_int r.Fleet.Chaos.scrub_failures))
    seeds;
  print_endline "(recovery = fault -> re-attested, through verified scrub + re-place + attestation, at 1.2 GHz;";
  print_endline " goodput = frames forwarded / injected while the storm drops, corrupts, and stalls the fleet)"

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks                                            *)
(* ------------------------------------------------------------------ *)

let microbenches () =
  header "Microbenchmarks (Bechamel)";
  let open Bechamel in
  let ip = Net.Ipv4_addr.of_string in
  let pkt_payload_holder = String.init 256 (fun i -> Char.chr (97 + (i * 7 mod 26))) in
  let pkt =
    Net.Packet.make ~src_ip:(ip "10.3.2.1") ~dst_ip:(ip "93.184.216.34") ~proto:Net.Packet.Tcp ~src_port:4242
      ~dst_port:80 pkt_payload_holder
  in
  let rng = Trace.Rng.create ~seed:1 in
  let fw = Nf.Firewall.create ~default:Nf.Firewall.Allow (Nf.Rulegen.firewall_rules rng ~n:643) in
  let dpi = Nf.Dpi.create (Nf.Rulegen.dpi_patterns rng ~n:2000) in
  let ac_sparse = Nf.Dpi.automaton dpi in
  let ac_dense = Nf.Aho_corasick.compile ac_sparse in
  let scan_text = pkt_payload_holder in
  let nat = Nf.Nat.create ~internal_prefix:(ip "10.0.0.0", 8) ~external_ip:(ip "203.0.113.1") () in
  let lb = Nf.Maglev.create (Nf.Rulegen.backends ~n:16) in
  let lpm = Nf.Lpm.create () in
  List.iter (fun (p, l, nh) -> Nf.Lpm.insert lpm ~prefix:p ~len:l nh) (Nf.Rulegen.routes rng ~n:4000);
  let mon = Nf.Monitor.create () in
  let flow = Net.Packet.flow pkt in
  let frame = Net.Packet.serialize pkt in
  let kb = String.make 1024 'x' in
  let compressible = String.concat "" (List.init 128 (fun i -> Printf.sprintf "row %04d value=ok;" i)) in
  let raid_blocks = Array.init 4 (fun i -> String.make 1024 (Char.chr (65 + i))) in
  let vnic_api = Snic.Api.boot () in
  let vnic_v =
    Result.get_ok
      (Snic.Api.nf_create vnic_api
         { Snic.Instructions.default_config with image = "bench"; rules = [ Nicsim.Pktio.match_any ] })
  in
  let echo = { Nf.Types.name = "echo"; process = (fun p -> Nf.Types.Forward p) } in
  let tests =
    [
      Test.make ~name:"FW classify" (Staged.stage (fun () -> ignore (Nf.Firewall.classify fw pkt)));
      Test.make ~name:"DPI inspect 256B" (Staged.stage (fun () -> ignore (Nf.Dpi.inspect dpi pkt)));
      Test.make ~name:"AC scan sparse 256B" (Staged.stage (fun () -> ignore (Nf.Aho_corasick.scan ac_sparse scan_text)));
      Test.make ~name:"AC scan compiled 256B" (Staged.stage (fun () -> ignore (Nf.Aho_corasick.scan ac_dense scan_text)));
      Test.make ~name:"NAT translate" (Staged.stage (fun () -> ignore (Nf.Nat.translate nat pkt)));
      Test.make ~name:"LB maglev lookup" (Staged.stage (fun () -> ignore (Nf.Maglev.backend_for lb flow)));
      Test.make ~name:"LPM lookup" (Staged.stage (fun () -> ignore (Nf.Lpm.lookup lpm pkt.Net.Packet.dst_ip)));
      Test.make ~name:"Mon observe" (Staged.stage (fun () -> Nf.Monitor.observe mon pkt));
      Test.make ~name:"packet parse" (Staged.stage (fun () -> ignore (Net.Packet.parse frame)));
      Test.make ~name:"packet serialize" (Staged.stage (fun () -> ignore (Net.Packet.serialize pkt)));
      Test.make ~name:"sha256 1KB" (Staged.stage (fun () -> ignore (Crypto.Sha256.digest kb)));
      Test.make ~name:"5-tuple hash" (Staged.stage (fun () -> ignore (Net.Five_tuple.hash flow)));
      Test.make ~name:"lz77 compress 4KB" (Staged.stage (fun () -> ignore (Accelfn.Lz77.compress compressible)));
      Test.make ~name:"raid encode 4x1KB" (Staged.stage (fun () -> ignore (Accelfn.Raid.encode raid_blocks)));
      Test.make ~name:"vnic end-to-end pkt"
        (Staged.stage (fun () ->
             ignore (Snic.Api.inject_packet vnic_api pkt);
             ignore (Snic.Vnic.process vnic_v echo ~max:1)));
      Test.make ~name:"wire encode quote fields"
        (Staged.stage (fun () -> ignore (Snic.Wire.encode [ "a"; kb; "c"; "d" ])));
    ]
  in
  let grouped = Test.make_grouped ~name:"snic" ~fmt:"%s %s" tests in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let raw = Benchmark.all cfg instances grouped in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name est acc -> (name, est) :: acc) results [] in
  List.iter
    (fun (name, est) ->
      match Analyze.OLS.estimates est with
      | Some [ ns ] -> Printf.printf "%-24s %12.1f ns/op\n" name ns
      | _ -> Printf.printf "%-24s (no estimate)\n" name)
    (List.sort compare rows)

let offload_motivation () =
  header "Offload motivation (Section 1): host NF vs NIC NF vs S-NIC NF";
  Printf.printf "%-16s %14s %16s %14s\n" "deployment" "latency ns" "kpps per core" "$ per Mpps";
  List.iter
    (fun (r : Costmodel.Offload.result) ->
      Printf.printf "%-16s %14.0f %16.0f %14.2f\n" r.Costmodel.Offload.deployment r.Costmodel.Offload.latency_ns
        r.Costmodel.Offload.kpps_per_core r.Costmodel.Offload.usd_per_mpps)
    (Costmodel.Offload.comparison ());
  print_endline "(offload removes the PCIe round trip and halves $/Mpps; S-NIC's isolation";
  print_endline " tax — 1.7% IPC worst-case + the silicon overhead — barely dents either)"

(* ------------------------------------------------------------------ *)
(* Fleet orchestration: placement policies on a heterogeneous rack     *)
(* ------------------------------------------------------------------ *)

let fleet_section () =
  header "Fleet orchestration: attested placement across a heterogeneous rack";
  let policies = if fast then [ Fleet.Policy.First_fit; Fleet.Policy.Tco_aware ] else Fleet.Policy.all in
  Printf.printf "%-10s %12s %12s %12s %12s %12s\n" "policy" "attested" "active NICs" "replacements" "forwarded"
    "unattested";
  List.iter
    (fun policy ->
      let report =
        Fleet.Scenario.run
          {
            Fleet.Scenario.default_config with
            Fleet.Scenario.n_nics = 6;
            n_tenants = 18;
            policy;
            rounds = 2;
            packets_per_round = 200;
            kill_nics = 1;
            kill_nfs = 2;
          }
      in
      let forwarded =
        List.fold_left (fun acc r -> acc + r.Fleet.Scenario.traffic.Fleet.Frontend.forwarded) 0
          report.Fleet.Scenario.rounds
      in
      Printf.printf "%-10s %9d/18 %9d/%-2d %12d %12d %12d\n" (Fleet.Policy.name policy)
        report.Fleet.Scenario.final_attested report.Fleet.Scenario.active_nics report.Fleet.Scenario.alive_nics
        report.Fleet.Scenario.replacements forwarded report.Fleet.Scenario.unattested_running)
    policies;
  print_endline "(every placement goes through nf_create + the Appendix A attestation handshake;";
  print_endline " consolidating policies power few NICs, spread activates the most)"

(* ------------------------------------------------------------------ *)
(* Datapath: bulk page-granular fast paths vs the per-byte baseline    *)
(* ------------------------------------------------------------------ *)

(* Deterministic digest of a payload (order-sensitive polynomial hash):
   any byte the datapath loses, duplicates or reorders changes it. *)
let checksum s =
  let h = ref 0 in
  String.iter (fun c -> h := ((!h * 131) + Char.code c) land 0x3FFF_FFFF) s;
  float_of_int !h

let datapath_section () =
  header "Datapath: page-granular bulk fast paths vs the per-byte baseline";
  let open Nicsim in
  let mb = 1 lsl 20 in
  let rng = Trace.Rng.create ~seed in
  let payload = String.init mb (fun _ -> Char.chr (Trace.Rng.int rng 256)) in
  let secs f = Float.max (snd (timed f)) 1e-6 in
  let m name v = metric ("datapath." ^ name) v in

  (* -- Physmem: 1 MB write+read, bulk vs one hash lookup per byte -- *)
  subheader "Physmem 1MB write+read";
  let mem = Physmem.create ~size:(64 * mb) in
  let perbyte_digest = ref 0. in
  let r0 = Physmem.resolutions mem in
  let perbyte_dt =
    secs (fun () ->
        for i = 0 to mb - 1 do
          Physmem.write_u8 mem i (Char.code payload.[i])
        done;
        let b = Bytes.create mb in
        for i = 0 to mb - 1 do
          Bytes.set b i (Char.chr (Physmem.read_u8 mem i))
        done;
        perbyte_digest := checksum (Bytes.unsafe_to_string b))
  in
  let perbyte_res = Physmem.resolutions mem - r0 in
  let bulk_digest = ref 0. in
  let r1 = Physmem.resolutions mem in
  let bulk_iters = 16 in
  let bulk_dt =
    secs (fun () ->
        for _ = 1 to bulk_iters do
          Physmem.write_bytes mem ~pos:(32 * mb) payload;
          bulk_digest := checksum (Physmem.read_bytes mem ~pos:(32 * mb) ~len:mb)
        done)
  in
  let bulk_res = (Physmem.resolutions mem - r1) / bulk_iters in
  let perbyte_mb_s = 2. /. perbyte_dt in
  let bulk_mb_s = 2. *. float_of_int bulk_iters /. bulk_dt in
  Printf.printf "per-byte: %8.1f MB/s  (%d page resolutions)\n" perbyte_mb_s perbyte_res;
  Printf.printf "bulk:     %8.1f MB/s  (%d page resolutions)  digests %s\n" bulk_mb_s bulk_res
    (if !bulk_digest = !perbyte_digest then "agree" else "DISAGREE");
  m "physmem.perbyte_resolutions" (float_of_int perbyte_res);
  m "physmem.bulk_resolutions" (float_of_int bulk_res);
  m "physmem.checksum" !bulk_digest;
  m "physmem.digests_agree" (if !bulk_digest = !perbyte_digest then 1. else 0.);
  m "physmem.perbyte_mb_s" perbyte_mb_s;
  m "physmem.bulk_mb_s" bulk_mb_s;

  (* -- DMA: 1 MB NIC->host, the engine's bulk staging buffer vs an
        emulated per-byte engine (what the transfer cost before the bulk
        rewrite: one nic read + one host write hash lookup per byte) -- *)
  subheader "DMA 1MB NIC->host";
  let nic_mem = Physmem.create ~size:(16 * mb) in
  let host_mem = Physmem.create ~size:(16 * mb) in
  let dma = Dma.create ~nic_mem ~host_mem ~banks:1 in
  Physmem.write_bytes nic_mem ~pos:0 payload;
  let dma_r0 = Physmem.resolutions nic_mem + Physmem.resolutions host_mem in
  (match Dma.transfer ~checked:false dma ~bank:0 ~direction:Dma.To_host ~nic_addr:0 ~host_addr:0 ~len:mb with
  | Ok () -> ()
  | Error e -> failwith (Dma.error_to_string e));
  let dma_res = Physmem.resolutions nic_mem + Physmem.resolutions host_mem - dma_r0 in
  let dma_iters = 16 in
  let dma_bulk_dt =
    secs (fun () ->
        for _ = 1 to dma_iters do
          ignore (Dma.transfer ~checked:false dma ~bank:0 ~direction:Dma.To_host ~nic_addr:0 ~host_addr:0 ~len:mb)
        done)
  in
  let dma_perbyte_dt =
    secs (fun () ->
        for i = 0 to mb - 1 do
          Physmem.write_u8 host_mem (2 * mb + i) (Physmem.read_u8 nic_mem i)
        done)
  in
  let dma_bulk_mb_s = float_of_int dma_iters /. dma_bulk_dt in
  let dma_perbyte_mb_s = 1. /. dma_perbyte_dt in
  let speedup = dma_bulk_mb_s /. dma_perbyte_mb_s in
  let dma_digest = checksum (Physmem.read_bytes host_mem ~pos:0 ~len:mb) in
  Printf.printf "per-byte engine: %8.1f MB/s\n" dma_perbyte_mb_s;
  Printf.printf "bulk engine:     %8.1f MB/s  (%d page resolutions/transfer)  speedup %.1fx\n" dma_bulk_mb_s
    dma_res speedup;
  m "dma.resolutions_per_transfer" (float_of_int dma_res);
  m "dma.checksum" dma_digest;
  m "dma.perbyte_mb_s" dma_perbyte_mb_s;
  m "dma.bulk_mb_s" dma_bulk_mb_s;
  m "dma.speedup_x" speedup;

  (* -- Packet IO: deliver -> rx_pop -> transmit round trips -- *)
  subheader "Pktio deliver/rx_pop/transmit";
  let pmem = Physmem.create ~size:(16 * mb) in
  let alloc = Alloc.init pmem ~base:0x10000 ~heap_base:(8 * mb) ~heap_size:(8 * mb) ~max_entries:4096 in
  let pktio = Pktio.create pmem alloc ~rx_buffer_bytes:(2 * mb) ~tx_buffer_bytes:(2 * mb) in
  (match Pktio.reserve pktio ~nf:1 ~rx_bytes:mb ~tx_bytes:mb with
  | Ok () -> ()
  | Error e -> failwith e);
  Pktio.add_rule pktio ~m:Pktio.match_any ~nf:1;
  let ip = Net.Ipv4_addr.of_string in
  let frame =
    Net.Packet.serialize
      (Net.Packet.make ~src_ip:(ip "10.1.0.1") ~dst_ip:(ip "10.2.0.2") ~proto:Net.Packet.Udp ~src_port:4000
         ~dst_port:4001
         (String.sub payload 0 1024))
  in
  let rounds = 2000 in
  let forwarded = ref 0 in
  let pktio_dt =
    secs (fun () ->
        for _ = 1 to rounds do
          (match Pktio.deliver pktio frame with
          | Ok _ -> ()
          | Error e -> failwith ("pktio deliver: " ^ e));
          match Pktio.rx_pop pktio ~nf:1 with
          | None -> failwith "pktio: delivered frame did not arrive"
          | Some (addr, len) ->
            Pktio.transmit pktio ~nf:1 ~addr ~len;
            incr forwarded
        done)
  in
  let wire = Pktio.wire_out pktio in
  let wire_digest = checksum (Bytes.unsafe_to_string (List.nth wire (List.length wire - 1))) in
  let pps = float_of_int rounds /. pktio_dt in
  Printf.printf "%d frames of %dB round-tripped: %8.0f pps, %d drops\n" !forwarded (Bytes.length frame) pps
    (Pktio.drop_count pktio);
  m "pktio.forwarded" (float_of_int !forwarded);
  m "pktio.drops" (float_of_int (Pktio.drop_count pktio));
  m "pktio.wire_checksum" wire_digest;
  m "pktio.pps" pps;

  (* -- Accelerator streaming through a locked cluster TLB bank -- *)
  subheader "Accel ZIP stream (256KB through the cluster TLB)";
  let amem = Physmem.create ~size:(16 * mb) in
  let zip = Accel.create ~kind:Accel.Zip ~threads:16 ~cluster_size:16 in
  let cluster = Option.get (Accel.claim_cluster zip ~nf:1) in
  let tlb = Accel.cluster_tlb zip ~cluster in
  ignore (Tlb.map_region tlb ~vbase:0 ~pbase:0 ~len:(8 * mb) ~writable:true);
  Tlb.lock tlb;
  let zdata = String.concat "" (List.init 12_800 (fun i -> Printf.sprintf "row %06d value=%02x;" i (i land 0xff))) in
  Physmem.write_bytes amem ~pos:0 zdata;
  let written = ref 0 and done_at = ref 0 in
  let ziters = 8 in
  let zdt =
    secs (fun () ->
        for _ = 1 to ziters do
          Accel.reset_timing zip;
          match
            Accel.stream zip ~cluster ~now:0 ~mem:amem ~src:0 ~src_len:(String.length zdata) ~dst:(4 * mb)
              ~f:Accelfn.Lz77.compress
          with
          | Ok (w, d) ->
            written := w;
            done_at := d
          | Error e -> failwith (Accel.stream_error_to_string e)
        done)
  in
  let zmb_s = float_of_int (ziters * String.length zdata) /. 1048576. /. zdt in
  let zdigest = checksum (Physmem.read_bytes amem ~pos:(4 * mb) ~len:!written) in
  Printf.printf "%dB in -> %dB out, %d model cycles, %8.1f MB/s host-side\n" (String.length zdata) !written
    !done_at zmb_s;
  m "accel.stream_in_bytes" (float_of_int (String.length zdata));
  m "accel.stream_out_bytes" (float_of_int !written);
  m "accel.stream_cycles" (float_of_int !done_at);
  m "accel.stream_checksum" zdigest;
  m "accel.stream_mb_s" zmb_s

(* ------------------------------------------------------------------ *)
(* --check BASELINE: the regression gate                               *)
(* ------------------------------------------------------------------ *)

(* Parse the flat { "key": float, ... } format [write_metrics] emits —
   a ~20-line scanner so the gate needs no JSON library in CI. *)
let parse_flat_json path =
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let len = String.length s in
  let pairs = ref [] in
  let i = ref 0 in
  while !i < len do
    if s.[!i] = '"' then begin
      let j = String.index_from s (!i + 1) '"' in
      let key = String.sub s (!i + 1) (j - !i - 1) in
      let k = ref (j + 1) in
      while !k < len && (s.[!k] = ':' || s.[!k] = ' ') do
        incr k
      done;
      let e = ref !k in
      while
        !e < len && (match s.[!e] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false)
      do
        incr e
      done;
      if !e > !k then pairs := (key, float_of_string (String.sub s !k (!e - !k))) :: !pairs;
      i := max (!e) (j + 1)
    end
    else incr i
  done;
  List.rev !pairs

(* The regression gate.  Every baseline value is a count, digest or
   simulated-cycle figure that repeats exactly for the pinned seed, so
   every baseline key must be present in this run with the same value at
   the %.6f precision --json writes.  The sections' scenario gates come
   on top, and the two host-timing floors: the bulk DMA path must beat
   the per-byte engine by >= 10x, and 4 domains must give >= 2.5x on a
   host with >= 4 cores (a smaller host still checks the digests). *)
let dma_speedup_floor = 10.
let par_speedup_floor = 2.5

let run_check () =
  match path_after "--check" with
  | None -> ()
  | Some path ->
    let baseline = parse_flat_json path in
    let current = List.rev !metrics in
    let get key = List.assoc_opt key current in
    let exact = Printf.sprintf "%.6f" in
    let mismatches =
      List.filter_map
        (fun (key, expect) ->
          match get key with
          | None -> Some (Printf.sprintf "%s: present in baseline but missing from this run" key)
          | Some got when exact got <> exact expect ->
            Some (Printf.sprintf "%s: %s vs baseline %s (must match exactly)" key (exact got) (exact expect))
          | Some _ -> None)
        baseline
    in
    let floors =
      (match get "datapath.dma.speedup_x" with
      | Some s when s < dma_speedup_floor ->
        [ Printf.sprintf "datapath.dma.speedup_x: %.1fx is below the %.0fx floor" s dma_speedup_floor ]
      | _ -> [])
      @
      match (get "par.speedup_4x", get "par.cores") with
      | Some s, Some c when c >= 4. && s < par_speedup_floor ->
        [ Printf.sprintf "par.speedup_4x: %.2fx is below the %.1fx floor (on a %.0f-core host)" s par_speedup_floor c ]
      | _ -> []
    in
    match mismatches @ !gate_failures @ floors with
    | [] ->
      Printf.printf "\nbench --check: %d baseline metrics match exactly, scenario gates and floors met\n"
        (List.length baseline)
    | failures ->
      Printf.printf "\nbench --check FAILED against %s:\n" path;
      List.iter (Printf.printf "  %s\n") failures;
      exit 1

(* ------------------------------------------------------------------ *)
(* Isolation oracle: differential-fuzzing throughput + violation census *)

let oracle_section () =
  header "Isolation oracle (lib/oracle)";
  let ops = if fast then 5_000 else 50_000 in
  Printf.printf "%-12s %10s %10s %10s %12s  violations by class\n" "mode" "ops" "executed" "found" "ops/sec";
  List.iter
    (fun mode ->
      let id = Nicsim.Machine.mode_id mode in
      let r, dt = timed (fun () -> Oracle.Campaign.run ~mode ~ops ~seed ()) in
      let rate = if dt > 0. then float_of_int ops /. dt else 0. in
      let found = List.length r.Oracle.Campaign.violations in
      let by_class =
        List.filter_map
          (fun (cls, n) -> if n = 0 then None else Some (Printf.sprintf "%s=%d" (Oracle.Refmodel.cls_to_string cls) n))
          (Oracle.Campaign.counts r)
      in
      Printf.printf "%-12s %10d %10d %10d %12.0f  %s\n" id ops r.Oracle.Campaign.executed found rate
        (if by_class = [] then "(clean)" else String.concat " " by_class);
      let m name v = metric (Printf.sprintf "oracle.%s.%s" id name) v in
      m "ops_per_sec" rate;
      m "violations" (float_of_int found);
      List.iter
        (fun (cls, n) -> m (Oracle.Refmodel.cls_to_string cls) (float_of_int n))
        (Oracle.Campaign.counts r))
    Nicsim.Machine.all_modes;
  print_endline "expectation: every commodity mode reports >=1 class; snic stays (clean)"

(* ------------------------------------------------------------------ *)
(* Virtual functions: two-stage scheduler fairness at fleet density *)

let vf_section () =
  header "Virtual functions (lib/vf): two-stage scheduler at fleet density";
  let nics = 64 in
  let vfs_per_nic = 256 in
  (* A heterogeneous rack (shape cycle small, medium, large, medium =
     256/512/1024/512 VF slots) takes nics * 256 tenant vNICs, spread
     round-robin so every NIC serves the same tenant count; weights
     cycle 1,2,4,8 so each NIC hosts a mix of shares. *)
  let sites =
    List.init nics (fun i ->
        { Fleet.Vfplace.nic = i; slots = (Fleet.Node.shape_of_index i).Fleet.Node.vf_slots })
  in
  let vnics =
    List.init (nics * vfs_per_nic) (fun j ->
        { Fleet.Vfplace.tenant = j + 1; weight = [| 1; 2; 4; 8 |].(j / nics mod 4) })
  in
  let assignments =
    match Fleet.Vfplace.pack Fleet.Vfplace.Spread ~sites ~vnics with
    | Ok a -> a
    | Error e -> failwith ("vf_section placement: " ^ e)
  in
  let groups = Fleet.Vfplace.per_nic assignments in
  let cycles = 32 in
  let results, secs =
    timed (fun () ->
        List.map
          (fun (nic, assigns) ->
            match
              Vf.Scenario.run_nic ~nic ~cycles ~seed
                ~vnics:(List.map (fun (a : Fleet.Vfplace.assignment) -> (a.tenant, a.weight)) assigns)
                ()
            with
            | Ok r -> r
            | Error e -> failwith ("vf_section: " ^ Vf.Scenario.error_to_string e))
          groups)
  in
  let r = Vf.Scenario.aggregate results in
  gate "vf" (Vf.Scenario.check r);
  let pkts = r.Vf.Scenario.total_pkts and bytes = r.Vf.Scenario.total_bytes and drops = r.Vf.Scenario.total_drops in
  let jain_min = r.Vf.Scenario.jain_min and max_err = r.Vf.Scenario.max_rel_err in
  let rounds = List.fold_left (fun a (r : Vf.Scenario.nic_result) -> a + r.rounds) 0 results in
  let lat_jain_min =
    List.fold_left
      (fun a (r : Vf.Scenario.nic_result) -> Float.min a r.lat_report.Obs.Fairness.index)
      infinity results
  in
  let pps = if secs > 0. then float_of_int pkts /. secs else 0. in
  (match results with
  | first :: _ -> Printf.printf "first NIC: %s\n" (Vf.Scenario.nic_summary first)
  | [] -> ());
  Printf.printf "%d NICs x %d VFs = %d tenant vNICs, %d cycles each\n" nics vfs_per_nic (nics * vfs_per_nic) cycles;
  Printf.printf "scheduled %d pkts (%d MB) in %.2fs -> %.0f pkts/sec\n" pkts (bytes / 1048576) secs pps;
  Printf.printf "fairness: worst jain %.4f, worst share error %.2f%%, drops %d\n" jain_min (100. *. max_err) drops;
  let m name v = metric ("vf." ^ name) v in
  m "nics" (float_of_int nics);
  m "total_vnics" (float_of_int (nics * vfs_per_nic));
  m "scheduled_pkts" (float_of_int pkts);
  m "scheduled_bytes" (float_of_int bytes);
  m "rounds" (float_of_int rounds);
  m "drops" (float_of_int drops);
  m "jain_min" jain_min;
  m "max_share_err_pct" (100. *. max_err);
  m "lat_jain_min" lat_jain_min;
  m "sched_pps" pps;
  print_endline "expectation: shares track weights within 5% on every NIC (jain >= 0.95), zero drops"

(* ------------------------------------------------------------------ *)
(* QoS: noisy-neighbor protection and self-healing under credit arbitration *)

let qos_section () =
  header "QoS credits (lib/nicsim/qos): noisy neighbor vs latency SLOs";
  let (r, _sup), secs = timed (fun () -> Fleet.Chaos.run_qos Fleet.Chaos.default_qos_config) in
  gate "qos" (Fleet.Chaos.qos_check r);
  let c = Fleet.Chaos.cycles_str in
  Printf.printf "protected run: victim p99 %s (steady %s), unprotected baseline p99 %s\n"
    (c r.Fleet.Chaos.q_victim_p99) (c r.Fleet.Chaos.q_victim_p99_steady) (c r.Fleet.Chaos.q_unprotected_p99);
  Printf.printf "self-healing: %d quarantine(s), %d readmission(s), aggressor throttled %d times\n"
    r.Fleet.Chaos.q_quarantines r.Fleet.Chaos.q_readmissions r.Fleet.Chaos.q_aggressor_throttles;
  Printf.printf "fairness: share_min %.4f, starved %d, latency jain %.4f (%.2fs)\n" r.Fleet.Chaos.q_share_min
    r.Fleet.Chaos.q_starved r.Fleet.Chaos.q_lat_fairness.Obs.Fairness.index secs;
  let m name v = metric ("qos." ^ name) v in
  let mq name v = match v with None -> () | Some v -> m name v in
  mq "victim_p99_cycles" r.Fleet.Chaos.q_victim_p99;
  mq "victim_p99_steady_cycles" r.Fleet.Chaos.q_victim_p99_steady;
  mq "unprotected_p99_cycles" r.Fleet.Chaos.q_unprotected_p99;
  (match (r.Fleet.Chaos.q_victim_p99_steady, r.Fleet.Chaos.q_unprotected_p99) with
  | Some p, Some u when p > 0. -> m "protection_x" (u /. p)
  | _ -> ());
  m "share_min" r.Fleet.Chaos.q_share_min;
  m "starved_victims" (float_of_int r.Fleet.Chaos.q_starved);
  m "quarantines" (float_of_int r.Fleet.Chaos.q_quarantines);
  m "readmissions" (float_of_int r.Fleet.Chaos.q_readmissions);
  m "aggressor_throttles" (float_of_int r.Fleet.Chaos.q_aggressor_throttles);
  m "slo_violations" (float_of_int r.Fleet.Chaos.q_slo_violations);
  m "lat_jain" r.Fleet.Chaos.q_lat_fairness.Obs.Fairness.index;
  (* Zero-slack variant: capacity = sum of guarantees, so every spare
     credit a victim gets comes from the epoch-rollover donation path.
     Nothing may starve even with no structural headroom. *)
  let rs, _ = Fleet.Chaos.run_qos { Fleet.Chaos.default_qos_config with Fleet.Chaos.q_starve = true } in
  Printf.printf "zero-slack variant: share_min %.4f, starved %d, borrowed %d credits\n"
    rs.Fleet.Chaos.q_share_min rs.Fleet.Chaos.q_starved
    (List.fold_left (fun a (t : Fleet.Chaos.qos_tenant) -> a + t.Fleet.Chaos.qt_borrowed) 0
       rs.Fleet.Chaos.q_outcomes);
  m "starve.share_min" rs.Fleet.Chaos.q_share_min;
  m "starve.starved_victims" (float_of_int rs.Fleet.Chaos.q_starved);
  print_endline
    "expectation: steady-state victim p99 back under the 2k-cycle SLO, share_min >= 0.9, zero starvation"

(* ------------------------------------------------------------------ *)
(* DDoS: CuckooGuard SYN proxy + cuckoo whitelist across the five modes *)

let ddos_section () =
  header "DDoS defense (lib/nf cuckoo/syn_proxy): SYN flood across protection modes";
  let config = { Fleet.Chaos.default_ddos_config with Fleet.Chaos.d_seed = seed } in
  let r, secs = timed (fun () -> Fleet.Chaos.run_ddos config) in
  gate "ddos" (Fleet.Chaos.ddos_check r);
  print_string (Fleet.Chaos.ddos_summary r);
  Printf.printf "(%.2fs)\n" secs;
  metric "ddos.events_digest" (float_of_int r.Fleet.Chaos.d_events_digest);
  metric "ddos.benign_pkts" (float_of_int r.Fleet.Chaos.d_benign_pkts);
  metric "ddos.attack_pkts" (float_of_int r.Fleet.Chaos.d_attack_pkts);
  List.iter
    (fun (mr : Fleet.Chaos.ddos_mode_report) ->
      let m name v = metric (Printf.sprintf "ddos.%s.%s" (Nicsim.Machine.mode_id mr.Fleet.Chaos.dm_mode) name) v in
      let flag name b = m name (if b then 1. else 0.) in
      m "goodput_ratio" mr.Fleet.Chaos.dm_goodput_ratio;
      m "unprotected_ratio" mr.Fleet.Chaos.dm_unprotected_ratio;
      m "attack_dropped" (float_of_int mr.Fleet.Chaos.dm_attack_dropped);
      m "benign_dropped" (float_of_int mr.Fleet.Chaos.dm_benign_dropped);
      m "forged_admits" (float_of_int mr.Fleet.Chaos.dm_forged_admits);
      m "corrupt_flips" (float_of_int mr.Fleet.Chaos.dm_corrupt_flips);
      m "whitelist_load" mr.Fleet.Chaos.dm_whitelist_load;
      m "mem_reserved_bytes" (float_of_int mr.Fleet.Chaos.dm_mem_reserved_bytes);
      m "mem_peak_bytes" (float_of_int mr.Fleet.Chaos.dm_mem_peak_bytes);
      flag "mem_flat" mr.Fleet.Chaos.dm_mem_flat;
      flag "tampered" mr.Fleet.Chaos.dm_tampered;
      flag "key_stolen" mr.Fleet.Chaos.dm_key_stolen;
      m "unprotected_mem_wanted_bytes" (float_of_int mr.Fleet.Chaos.dm_unprotected_mem_wanted_bytes))
    r.Fleet.Chaos.d_mode_reports;
  print_endline
    "expectation: snic holds >= 0.8x benign goodput with flat defense memory; unmediated modes collapse"

(* ------------------------------------------------------------------ *)
(* Fabric: attested NIC-to-NIC channels + cross-NIC chain failover *)

let fabric_section () =
  header "Attested fabric (lib/fabric): cross-NIC CuckooGuard chain + failover";
  let config = { Fleet.Chaos.default_fabric_config with Fleet.Chaos.f_seed = seed } in
  let r, secs = timed (fun () -> Fleet.Chaos.run_fabric config) in
  gate "fabric" (Fleet.Chaos.fabric_check r);
  print_string (Fleet.Chaos.fabric_summary r);
  Printf.printf "(%.2fs)\n" secs;
  let m name v = metric ("fabric." ^ name) v in
  let flag name b = m name (if b then 1. else 0.) in
  m "events_digest" (float_of_int r.Fleet.Chaos.f_events_digest);
  m "benign_pkts" (float_of_int r.Fleet.Chaos.f_benign_pkts);
  m "handshakes" (float_of_int r.Fleet.Chaos.f_handshakes);
  m "hops" (float_of_int r.Fleet.Chaos.f_hops);
  m "admitted" (float_of_int r.Fleet.Chaos.f_admitted);
  m "goodput_ratio" r.Fleet.Chaos.f_goodput_ratio;
  m "benign_mac_failures" (float_of_int r.Fleet.Chaos.f_benign_mac_failures);
  m "replay_rejected" (float_of_int r.Fleet.Chaos.f_replay_rejected);
  m "stale_rejected" (float_of_int r.Fleet.Chaos.f_stale_rejected);
  m "tamper_rejected" (float_of_int r.Fleet.Chaos.f_tamper_rejected);
  flag "adversary_all_rejected" (Fleet.Chaos.adversary_all_rejected r);
  m "state_replayed" (float_of_int r.Fleet.Chaos.f_state_replayed);
  m "state_recovered" (float_of_int r.Fleet.Chaos.f_state_recovered);
  flag "failed_over" r.Fleet.Chaos.f_failed_over;
  flag "fail_closed" (Fleet.Chaos.fail_closed r);
  (* The same run at 1 and 4 domains must produce the same summary —
     the rack boot is the only fanned-out stage and it is seeded. *)
  let digest domains =
    Par.Digest.strings [ Fleet.Chaos.fabric_summary (Fleet.Chaos.run_fabric ~domains config) ]
  in
  let d1 = digest 1 and d4 = digest 4 in
  Printf.printf "summary digest: %d (1 domain) vs %d (4 domains) — %s\n" d1 d4
    (if d1 = d4 then "identical" else "DIVERGED");
  flag "consistent" (d1 = d4);
  (* The differential oracle with channel ops in the alphabet: S-NIC
     mode must stay clean with attested channels in play. *)
  let ops = if fast then 4_000 else 20_000 in
  let o = Oracle.Campaign.run ~fabric:true ~mode:Nicsim.Machine.Snic ~ops ~seed () in
  Printf.printf "oracle snic + chan ops: %d ops, %d executed, %d violations\n" ops o.Oracle.Campaign.executed
    (List.length o.Oracle.Campaign.violations);
  m "oracle_snic_violations" (float_of_int (List.length o.Oracle.Campaign.violations));
  print_endline
    "expectation: zero benign MAC failures, every forged/replayed frame bounced, goodput unchanged by failover"

(* ------------------------------------------------------------------ *)
(* Parallel shards: domain scaling curve + cross-domain determinism *)

let par_section () =
  header "Parallel shards (lib/par): scaling curve + determinism digests";
  let cores = Par.Engine.available_domains () in
  let shards = 8 in
  let ops = if fast then 2_000 else 10_000 in
  let mode = match Nicsim.Machine.mode_of_id "se-s" with Some m -> m | None -> assert false in
  let m name v = metric ("par." ^ name) v in
  (* One oracle campaign per shard, shard seeds derived from --seed;
     the same workload at every fan-out, so the digest of the reports
     (merged in shard order) must be identical at every curve point. *)
  let curve = List.filter (fun d -> d <= max_domains) [ 1; 2; 4; 8 ] in
  Printf.printf "%d shards x %d ops each (oracle %s), %d core(s) available\n" shards ops
    (Nicsim.Machine.mode_id mode) cores;
  Printf.printf "%8s %12s %12s %10s %12s\n" "domains" "ops/sec" "speedup" "efficiency" "digest";
  (* Each point is timed [repeats] times and reports the median rate: one
     sample on a shared host can land anywhere.  Every repeat must give
     the same digest, or the point counts as a divergence. *)
  let repeats = 3 in
  let points =
    List.map
      (fun domains ->
        let runs =
          List.init repeats (fun _ ->
              let reports, wall = timed (fun () -> Oracle.Campaign.run_sharded ~domains ~mode ~ops ~seed ~shards ()) in
              let digest = Par.Digest.strings (Array.to_list (Array.map Oracle.Campaign.to_string reports)) in
              let rate = if wall > 0. then float_of_int (shards * ops) /. wall else 0. in
              (rate, digest, reports))
        in
        let _, digest, reports = List.hd runs in
        let repeats_agree = List.for_all (fun (_, d, _) -> d = digest) runs in
        let rate = List.nth (List.sort compare (List.map (fun (r, _, _) -> r) runs)) (repeats / 2) in
        (domains, rate, digest, reports, repeats_agree))
      curve
  in
  let base_rate = match points with (_, r, _, _, _) :: _ -> r | [] -> 0. in
  List.iter
    (fun (domains, rate, digest, _, _) ->
      let speedup = if base_rate > 0. then rate /. base_rate else 0. in
      let efficiency = speedup /. float_of_int domains in
      Printf.printf "%8d %12.0f %11.2fx %9.0f%% %12d\n" domains rate speedup (100. *. efficiency) digest;
      m (Printf.sprintf "domains%d.digest" domains) (float_of_int digest);
      m (Printf.sprintf "domains%d.ops_per_sec" domains) rate;
      m (Printf.sprintf "domains%d.efficiency" domains) efficiency;
      if domains = 4 then m "speedup_4x" speedup)
    points;
  let digests = List.map (fun (_, _, d, _, _) -> d) points in
  let consistent =
    List.for_all (fun d -> d = List.hd digests) digests && List.for_all (fun (_, _, _, _, agree) -> agree) points
  in
  let reports1 = match points with (_, _, _, r, _) :: _ -> r | [] -> [||] in
  let executed =
    Array.fold_left (fun a (r : Oracle.Campaign.report) -> a + r.Oracle.Campaign.executed) 0 reports1
  in
  let violations =
    Array.fold_left
      (fun a (r : Oracle.Campaign.report) -> a + List.length r.Oracle.Campaign.violations)
      0 reports1
  in
  m "shards" (float_of_int shards);
  m "ops_per_shard" (float_of_int ops);
  m "executed_total" (float_of_int executed);
  m "violations_total" (float_of_int violations);
  m "digest_consistent" (if consistent then 1. else 0.);
  m "cores" (float_of_int cores);
  (* Fleet and chaos shard fan-outs: parallel (2 domains) vs sequential
     (1 domain) digests over the same derived-seed shard set. *)
  let fleet_digest domains =
    let config =
      { Fleet.Scenario.default_config with Fleet.Scenario.seed; n_nics = 8; n_tenants = 16; rounds = 2; packets_per_round = 200 }
    in
    let rs = Fleet.Scenario.run_many ~domains ~shards:4 config in
    Par.Digest.strings (Array.to_list (Array.map (fun (r, _) -> Fleet.Scenario.summary r) rs))
  in
  let chaos_digest domains =
    let config =
      { Fleet.Chaos.default_config with Fleet.Chaos.seed; n_nics = 4; n_tenants = 8; rounds = 2; packets_per_round = 100 }
    in
    let rs = Fleet.Chaos.run_many ~domains ~shards:2 config in
    Par.Digest.strings (Array.to_list (Array.map (fun (r, _) -> Fleet.Chaos.summary r) rs))
  in
  let f1 = fleet_digest 1 and f2 = fleet_digest 2 in
  let c1 = chaos_digest 1 and c2 = chaos_digest 2 in
  Printf.printf "fleet 4-shard digest: %d (1 domain) vs %d (2 domains) — %s\n" f1 f2
    (if f1 = f2 then "identical" else "DIVERGED");
  Printf.printf "chaos 2-shard digest: %d (1 domain) vs %d (2 domains) — %s\n" c1 c2
    (if c1 = c2 then "identical" else "DIVERGED");
  m "fleet.digest" (float_of_int f1);
  m "fleet.consistent" (if f1 = f2 then 1. else 0.);
  m "chaos.digest" (float_of_int c1);
  m "chaos.consistent" (if c1 = c2 then 1. else 0.);
  if cores < 4 then
    Printf.printf "note: %d core(s) — the %.1fx speedup floor is waived (digests still checked)\n" cores
      par_speedup_floor;
  print_endline "expectation: identical digests at every fan-out; >= 2.5x at 4 domains on a 4-core host"

let main () =
  print_endline "S-NIC evaluation reproduction (EuroSys'24) — all tables and figures";
  if fast then print_endline "[--fast: reduced Figure 5 sweeps]";
  table1 ();
  table2 ();
  table3 ();
  table4 ();
  table5 ();
  overhead_and_tco ();
  offload_motivation ();
  table6 ();
  table7 ();
  table8 ();
  figure5a ();
  figure5b ();
  figure6 ();
  figure7 ();
  figure8 ();
  attacks_section ();
  header "Ablations";
  ablation_bus ();
  ablation_cache ();
  ablation_isolation_decomposition ();
  ablation_pages ();
  ablation_schedulers ();
  ablation_underutilization ();
  ablation_denylist ();
  ablation_translation ();
  fleet_section ();
  chaos_section ();
  datapath_section ();
  oracle_section ();
  vf_section ();
  qos_section ();
  ddos_section ();
  fabric_section ();
  par_section ();
  microbenches ();
  write_metrics ();
  run_check ();
  print_endline "\nAll experiments complete. See EXPERIMENTS.md for paper-vs-measured notes."

(* --only SECTION: one section, its metrics and its --check gate. *)
let sections =
  [
    ("datapath", "S-NIC datapath bench (bulk fast paths vs per-byte baseline)", datapath_section);
    ("oracle", "S-NIC isolation oracle bench (differential fuzzing throughput)", oracle_section);
    ("vf", "S-NIC virtual-function bench (two-stage scheduler fairness at density)", vf_section);
    ("qos", "S-NIC QoS bench (credit arbitration, SLOs, noisy-neighbor self-healing)", qos_section);
    ("par", "S-NIC parallel-shard bench (domain scaling + cross-domain determinism)", par_section);
    ("ddos", "S-NIC DDoS bench (CuckooGuard SYN proxy across protection modes)", ddos_section);
    ("fabric", "S-NIC fabric bench (attested NIC-to-NIC channels, cross-NIC chain failover)", fabric_section);
  ]

let () =
  match only with
  | None -> main ()
  | Some name -> (
    match List.find_opt (fun (n, _, _) -> n = name) sections with
    | Some (_, title, section) ->
      print_endline title;
      section ();
      write_metrics ();
      run_check ()
    | None ->
      Printf.eprintf "unknown --only section: %s\n" name;
      Printf.eprintf "Usage: bench [--fast] [--only SECTION] [--domains N] [--json PATH] [--check BASELINE]\n";
      Printf.eprintf "  valid sections: %s\n" (String.concat ", " (List.map (fun (n, _, _) -> n) sections));
      exit 124)
