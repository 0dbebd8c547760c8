(* Benchmark harness: regenerates every table of the paper's evaluation
   (§5, Tables 3 and 5–10) on the synthetic workload suites and the
   real-world race models, plus the §4.1 ablations, and finishes with a
   Bechamel micro-benchmark per table kernel.

     dune exec bench/main.exe                # tables + trajectory + bechamel
     dune exec bench/main.exe -- tables      # tables + trajectory
     dune exec bench/main.exe -- bech        # bechamel only
     dune exec bench/main.exe -- trajectory  # only write BENCH_o2.json

   Absolute numbers are machine- and substrate-dependent; the claims being
   reproduced are the *shapes*: who wins, by what rough factor, and where
   the precision spread comes from. EXPERIMENTS.md records paper-vs-measured
   for every table. *)

open O2_pta

let pf = Printf.printf

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* median of [runs] repetitions — timings at this scale are noisy.
   [runs] must be >= 1; an even [runs] averages the two middle samples
   (picking the upper-middle one alone biases the estimate upward). *)
let median_time ?(runs = 5) f =
  if runs < 1 then invalid_arg "median_time: runs must be >= 1";
  let samples =
    List.init runs (fun _ ->
        let _, dt = time f in
        dt)
    |> List.sort compare
    |> Array.of_list
  in
  if runs mod 2 = 1 then samples.(runs / 2)
  else (samples.((runs / 2) - 1) +. samples.(runs / 2)) /. 2.0

let policies_all =
  [
    ("0-ctx", Context.Insensitive);
    ("O2", Context.Korigin 1);
    ("1-CFA", Context.Kcfa 1);
    ("2-CFA", Context.Kcfa 2);
    ("1-obj", Context.Kobj 1);
    ("2-obj", Context.Kobj 2);
  ]

let rule title =
  pf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* Table 3: time complexity — empirical scaling curves per policy.     *)

let table3 () =
  rule "Table 3 — pointer-analysis scaling (empirical, helper depth sweep)";
  pf "%-8s" "n";
  List.iter (fun (name, _) -> pf "%12s" name) policies_all;
  pf "\n";
  let sizes = [ 2; 4; 6; 8; 10; 12 ] in
  let results =
    List.map
      (fun n ->
        let p = O2_workloads.Synth.scaling ~n in
        ( n,
          List.map
            (fun (_, pol) ->
              median_time ~runs:5 (fun () ->
                  ignore (Solver.analyze ~policy:pol p)))
            policies_all ))
      sizes
  in
  List.iter
    (fun (n, times) ->
      pf "%-8d" n;
      List.iter (fun dt -> pf "%12.4f" dt) times;
      pf "\n")
    results;
  (* growth factor between the smallest and largest size, as a scaling
     proxy for the worst-case bounds in the paper's Table 3 *)
  let first = List.hd results
  and last = List.nth results (List.length results - 1) in
  pf "%-8s" "growth";
  List.iteri
    (fun i _ ->
      let t0 = max 1e-6 (List.nth (snd first) i) in
      let t1 = List.nth (snd last) i in
      pf "%11.1fx" (t1 /. t0))
    policies_all;
  pf "\n";
  pf
    "paper: 0-ctx O(p.h^2) < heap/1-origin O(p^3.h^2) << 2-CFA/2-obj \
     O(p^5.h^2);\n\
     expect the k=2 columns to grow fastest and O2 to track 0-ctx.\n"

(* ------------------------------------------------------------------ *)
(* Table 5: PTA + race-detection time per policy on the JVM suites.    *)

let analyze_time pol p =
  let a = Solver.analyze ~policy:pol p in
  let dt = median_time ~runs:3 (fun () -> ignore (Solver.analyze ~policy:pol p)) in
  (a, dt)

let detect_time pol p =
  let _, _, report = O2_race.Detect.analyze ~policy:pol p in
  let dt =
    median_time ~runs:3 (fun () -> ignore (O2_race.Detect.analyze ~policy:pol p))
  in
  (report, dt)

let table5 specs =
  rule "Table 5 — performance on JVM-style suites (seconds)";
  pf "%-14s %5s |" "App" "#O";
  List.iter (fun (name, _) -> pf "%10s" ("pta:" ^ name)) policies_all;
  pf " |";
  List.iter (fun (name, _) -> pf "%10s" ("rd:" ^ name)) policies_all;
  pf "%10s\n" "RacerD";
  List.iter
    (fun (spec : O2_workloads.Synth.spec) ->
      let p = O2_workloads.Synth.program spec in
      let a0, _ = analyze_time (Context.Korigin 1) p in
      pf "%-14s %5d |" spec.s_name (Solver.n_origins a0);
      List.iter
        (fun (_, pol) ->
          let _, dt = analyze_time pol p in
          pf "%10.3f" dt)
        policies_all;
      pf " |";
      List.iter
        (fun (name, pol) ->
          (* the 0-ctx detection column is the D4 baseline: the unoptimized
             pairwise engine over context-insensitive facts, exactly the
             configuration the paper compares against *)
          let dt =
            if name = "0-ctx" then
              median_time ~runs:3 (fun () ->
                  ignore (O2_race.Naive.analyze ~policy:pol p))
            else
              median_time ~runs:3 (fun () ->
                  ignore (O2_race.Detect.analyze ~policy:pol p))
          in
          pf "%10.3f" dt)
        policies_all;
      let _, rd_dt = time (fun () -> O2_racerd.Racerd.analyze p) in
      pf "%10.3f\n" rd_dt)
    specs

(* ------------------------------------------------------------------ *)
(* Table 6: C-style apps — time and PAG sizes per policy.              *)

let table6 () =
  rule "Table 6 — C-style applications: time and PAG size";
  pf "%-11s %-8s %10s %10s %10s\n" "App" "policy" "#Pointer" "#Object" "#Edge";
  List.iter
    (fun (spec : O2_workloads.Synth.spec) ->
      let p = O2_workloads.Synth.program spec in
      List.iter
        (fun (name, pol) ->
          let a, dt = analyze_time pol p in
          let s = a.Solver.stats in
          pf "%-11s %-8s %10d %10d %10d   (%.3fs)\n" spec.s_name name
            (O2_util.Metrics.get s "pta.pointers")
            (O2_util.Metrics.get s "pta.objects")
            (O2_util.Metrics.get s "pta.edges")
            dt)
        [
          ("0-ctx", Context.Insensitive);
          ("O2", Context.Korigin 1);
          ("2-CFA", Context.Kcfa 2);
        ])
    O2_workloads.Synth.capps;
  pf
    "paper shape: O2 slightly above 0-ctx on every metric, 2-CFA far above\n\
     (13.5M vs 1M edges on redis).\n"

(* ------------------------------------------------------------------ *)
(* Table 7: OSA vs escape analysis.                                    *)

let table7 () =
  rule "Table 7 — OSA #shared accesses and time vs TLOA-style escape analysis";
  pf "%-14s %10s %10s %13s %10s\n" "App" "#S-access" "OSA time"
    "escape(2CFA)" "esc #acc";
  List.iter
    (fun (spec : O2_workloads.Synth.spec) ->
      let p = O2_workloads.Synth.program spec in
      let a, _ = analyze_time (Context.Korigin 1) p in
      let osa, osa_dt = time (fun () -> O2_osa.Osa.run a) in
      (* the TLOA model: context-sensitive information flow = escape
         analysis over 2-CFA facts, paying the full 2-CFA solve *)
      let esc_n, esc_dt =
        time (fun () ->
            let a2 = Solver.analyze ~policy:(Context.Kcfa 2) p in
            let esc = O2_escape.Escape.run a2 in
            O2_escape.Escape.n_escaped_accesses esc)
      in
      pf "%-14s %10d %10.3f %13.3f %10d\n" spec.s_name
        (O2_osa.Osa.n_shared_accesses osa)
        osa_dt esc_dt esc_n)
    O2_workloads.Synth.dacapo;
  pf
    "paper shape: OSA completes in seconds where TLOA needs >70x longer;\n\
     escape analysis also reports more shared accesses (statics, arrays).\n"

(* ------------------------------------------------------------------ *)
(* Table 8: #races per policy.                                         *)

let table8 () =
  rule "Table 8 — #races detected per pointer analysis (Dacapo-style)";
  pf "%-14s" "App";
  List.iter (fun (name, _) -> pf "%9s" name) policies_all;
  pf "%9s\n" "RacerD";
  List.iter
    (fun (spec : O2_workloads.Synth.spec) ->
      let p = O2_workloads.Synth.program spec in
      pf "%-14s" spec.s_name;
      List.iter
        (fun (_, pol) ->
          let report, _ = detect_time pol p in
          pf "%9d" (O2_race.Detect.n_races report))
        policies_all;
      pf "%9d\n" (O2_racerd.Racerd.n_warnings (O2_racerd.Racerd.analyze p)))
    O2_workloads.Synth.dacapo;
  pf
    "paper shape: O2 reduces warnings by ~77%% vs 0-ctx; k-CFA/k-obj land\n\
     in between; RacerD (no aliasing) is noisiest.\n"

(* ------------------------------------------------------------------ *)
(* Table 9: distributed systems — #races and #S-obj.                   *)

let table9 () =
  rule "Table 9 — distributed systems: #races and #thread-shared objects";
  pf "%-12s %8s %8s |%10s %10s %10s %10s\n" "App" "O2" "RacerD" "S:0-ctx"
    "S:1-CFA" "S:2-CFA" "S:O2";
  List.iter
    (fun (spec : O2_workloads.Synth.spec) ->
      let p = O2_workloads.Synth.program spec in
      let report, _ = detect_time (Context.Korigin 1) p in
      let rd = O2_racerd.Racerd.n_warnings (O2_racerd.Racerd.analyze p) in
      pf "%-12s %8d %8d |" spec.s_name (O2_race.Detect.n_races report) rd;
      List.iter
        (fun pol ->
          let a = Solver.analyze ~policy:pol p in
          let osa = O2_osa.Osa.run a in
          pf "%10d" (O2_osa.Osa.n_shared_object_sites a osa))
        [
          Context.Insensitive; Context.Kcfa 1; Context.Kcfa 2;
          Context.Korigin 1;
        ];
      pf "\n")
    O2_workloads.Synth.distributed;
  pf
    "paper shape: O2's #S-obj is the smallest, which is what makes its\n\
     detection tractable on these systems (Section 5.3).\n"

(* ------------------------------------------------------------------ *)
(* Table 10: real-world race models.                                   *)

let table10 () =
  rule "Table 10 — new races found in real-world code (models)";
  pf "%-11s %9s %9s %7s %7s  %s\n" "Code base" "expected" "detected" "fixed"
    "RacerD" "bug";
  List.iter
    (fun (m : O2_workloads.Models.model) ->
      let _, _, r = O2_race.Detect.analyze (m.program ()) in
      let _, _, rf = O2_race.Detect.analyze (m.fixed ()) in
      let rd =
        O2_racerd.Racerd.n_warnings (O2_racerd.Racerd.analyze (m.program ()))
      in
      pf "%-11s %9d %9d %7d %7d  %s\n" m.name m.expected_races
        (O2_race.Detect.n_races r)
        (O2_race.Detect.n_races rf)
        rd
        (String.sub m.describe 0 (min 46 (String.length m.describe))))
    O2_workloads.Models.all;
  (* the §5.4 Linux locality observation *)
  let m = O2_workloads.Models.find "linux" in
  let r = O2.run O2.Config.default (m.program ()) in
  let shared = List.length (O2.shared_locations r) in
  pf
    "\nLinux model: %d origin-shared locations across %d origins; the rest \
     of the\nkernel objects are origin-local, as observed in Section 5.4.\n"
    shared (O2.n_origins r)

(* ------------------------------------------------------------------ *)
(* Ablations for the §4.1 design choices.                              *)

let ablations () =
  rule "Ablations — the three Section 4.1 optimizations";
  (* run on the heaviest distributed workload *)
  let spec = O2_workloads.Synth.find "zookeeper" in
  let p = O2_workloads.Synth.program spec in
  let a = Solver.analyze ~policy:(Context.Korigin 1) p in

  (* 1: integer-id HB + memoized reachability vs naive per-pair DFS *)
  let g_nr = O2_shb.Graph.build ~lock_region:false a in
  let fast, fast_dt = time (fun () -> O2_race.Detect.run g_nr) in
  let slow, slow_dt = time (fun () -> O2_race.Naive.run g_nr) in
  pf
    "HB check:      optimized %.3fs vs naive DFS %.3fs (%.1fx); races %d = %d\n"
    fast_dt slow_dt
    (slow_dt /. max 1e-6 fast_dt)
    (O2_race.Detect.n_races fast)
    (O2_race.Detect.n_races slow);

  (* 2: lock-region merging *)
  let g_merged = O2_shb.Graph.build ~lock_region:true a in
  let rm, rm_dt = time (fun () -> O2_race.Detect.run g_merged) in
  pf
    "lock regions:  %d access nodes merged to %d; pairs checked %d -> %d; \
     %.3fs -> %.3fs\n"
    (Array.length (O2_shb.Graph.accesses g_nr))
    (Array.length (O2_shb.Graph.accesses g_merged))
    fast.O2_race.Detect.n_pairs_checked rm.O2_race.Detect.n_pairs_checked
    fast_dt rm_dt;

  (* 3: canonical lockset ids — cache behaviour during detection *)
  let locks = O2_shb.Graph.locks g_merged in
  pf "locksets:      %d distinct canonical sets; cache %d hits / %d misses\n"
    (O2_shb.Lockset.n_distinct locks)
    (O2_shb.Lockset.cache_hits locks)
    (O2_shb.Lockset.cache_misses locks);

  (* k-origin ablation: nesting depth (the Redis pattern of §3.2) *)
  let specr = O2_workloads.Synth.find "redis" in
  let pr = O2_workloads.Synth.program specr in
  List.iter
    (fun k ->
      let report, dt = detect_time (Context.Korigin k) pr in
      pf "k-origin:      k=%d -> %d races in %.3fs\n" k
        (O2_race.Detect.n_races report)
        dt)
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Trajectory: machine-readable per-workload metrics dump.             *)

(* One instrumented O2 run per workload, serialized to BENCH_o2.json so
   tooling can track the pipeline's counters/timers across commits:

     { "schema": "bench_o2/v1",
       "runs": [ { "bench": "<workload>", "policy": "O2",
                   "elapsed": <seconds>, "races": <n>,
                   "metrics": <O2_util.Metrics.to_json> }, ... ] }

   plus one "O2-batch" row per examples/programs corpus file (status and
   race count through the batch fault boundary), so corpus-level race
   drift is tracked alongside the synthetic workloads,

   plus one "pta:<workload>" row per workload pitting the
   difference-propagation solver against the frozen reference solver
   (Oracle): both median solve times, the speedup (oracle / solver), the
   solver's worklist/SCC counters, and a fingerprint-equality bit. CI
   gates on these rows: counters must match the committed run exactly,
   facts_equal must hold, and the speedup has a floor. *)
(* stage:<name> rows: the flat-IR post-PTA stages (SHB build, race
   detection, OSA scan) against the legacy AST tree-walkers kept as test
   oracles, on the heaviest distributed workload. Each row carries the
   stage medians for both paths, the speedup, the stage's deterministic
   counters and a parity bit (byte-identical rendered reports and equal
   counters). CI gates parity, exact counters and a speedup floor; the
   committed run records the real flat-vs-legacy factor. *)
let stage_rows () =
  let p = O2_workloads.Synth.program (O2_workloads.Synth.find "zookeeper") in
  let a = Solver.analyze ~policy:(Context.Korigin 1) p in
  let legacy_shb =
    median_time ~runs:5 (fun () -> ignore (O2_shb.Graph.build ~oracle:true a))
  in
  let flat_shb = median_time ~runs:5 (fun () -> ignore (O2_shb.Graph.build a)) in
  let g_o = O2_shb.Graph.build ~oracle:true a in
  let g_f = O2_shb.Graph.build a in
  let legacy_race =
    median_time ~runs:5 (fun () ->
        ignore (O2_race.Detect.run ~oracle:true g_o))
  in
  let flat_race =
    median_time ~runs:5 (fun () -> ignore (O2_race.Detect.run g_f))
  in
  let r_o = O2_race.Detect.run ~oracle:true g_o
  and r_f = O2_race.Detect.run g_f in
  let legacy_osa =
    median_time ~runs:5 (fun () -> ignore (O2_osa.Osa.run ~oracle:true a))
  in
  let flat_osa = median_time ~runs:5 (fun () -> ignore (O2_osa.Osa.run a)) in
  let osa_o = O2_osa.Osa.run ~oracle:true a and osa_f = O2_osa.Osa.run a in
  let rep_o =
    O2_race.Report.render
      { O2_race.Report.solver = a; graph = g_o; report = r_o }
  in
  let rep_f =
    O2_race.Report.render
      { O2_race.Report.solver = a; graph = g_f; report = r_f }
  in
  let shb_nodes = Array.length (O2_shb.Graph.nodes g_f) in
  let shb_parity =
    Array.length (O2_shb.Graph.nodes g_o) = shb_nodes
    && Array.length (O2_shb.Graph.accesses g_o)
       = Array.length (O2_shb.Graph.accesses g_f)
  in
  let race_parity =
    String.equal rep_o rep_f
    && O2_race.Detect.n_races r_o = O2_race.Detect.n_races r_f
    && r_o.O2_race.Detect.n_pairs_checked = r_f.O2_race.Detect.n_pairs_checked
  in
  let osa_parity =
    O2_osa.Osa.n_shared_accesses osa_o = O2_osa.Osa.n_shared_accesses osa_f
    && List.length (O2_osa.Osa.shared_locations osa_o)
       = List.length (O2_osa.Osa.shared_locations osa_f)
  in
  let row name legacy flat parity extra =
    pf "stage:%-8s legacy %.4fs  flat %.4fs  %.2fx  parity %s\n" name legacy
      flat
      (legacy /. max 1e-9 flat)
      (if parity then "ok" else "BROKEN");
    Printf.sprintf
      {|{"bench":"stage:%s","policy":"O2","legacy_ms":%.3f,"flat_ms":%.3f,"speedup":%.2f,"parity":%b%s}|}
      name (legacy *. 1e3) (flat *. 1e3)
      (legacy /. max 1e-9 flat)
      parity extra
  in
  [
    row "shb" legacy_shb flat_shb shb_parity
      (Printf.sprintf {|,"nodes":%d|} shb_nodes);
    row "race" legacy_race flat_race race_parity
      (Printf.sprintf {|,"races":%d,"pairs":%d|}
         (O2_race.Detect.n_races r_f)
         r_f.O2_race.Detect.n_pairs_checked);
    row "osa" legacy_osa flat_osa osa_parity
      (Printf.sprintf {|,"shared_accesses":%d|}
         (O2_osa.Osa.n_shared_accesses osa_f));
    row "combined"
      (legacy_shb +. legacy_race +. legacy_osa)
      (flat_shb +. flat_race +. flat_osa)
      (shb_parity && race_parity && osa_parity)
      "";
  ]

let trajectory ?(path = "BENCH_o2.json") () =
  rule "Trajectory — instrumented runs (BENCH_o2.json)";
  let workloads =
    [ "lusearch"; "memcached"; "zookeeper"; "redis"; "cyclic"; "chainstorm" ]
  in
  let pta_runs =
    List.map
      (fun name ->
        let p = O2_workloads.Synth.program (O2_workloads.Synth.find name) in
        let oracle_dt =
          median_time ~runs:5 (fun () -> ignore (Oracle.analyze p))
        in
        let solver_dt =
          median_time ~runs:5 (fun () -> ignore (Solver.analyze p))
        in
        let r = Solver.analyze p in
        let m = r.Solver.stats in
        let facts_equal =
          Solver.fingerprint r = Oracle.fingerprint (Oracle.analyze p)
        in
        let speedup = oracle_dt /. max 1e-9 solver_dt in
        pf
          "pta:%-9s oracle %.4fs  solver %.4fs  %.2fx  iters %d  scc %d  \
           facts %s\n"
          name oracle_dt solver_dt speedup
          (O2_util.Metrics.get m "pta.worklist_iters")
          (O2_util.Metrics.get m "pta.scc_collapsed")
          (if facts_equal then "equal" else "DIFFER");
        Printf.sprintf
          {|{"bench":"pta:%s","policy":"O2","oracle_ms":%.3f,"solver_ms":%.3f,"speedup":%.2f,"worklist_iters":%d,"scc_collapsed":%d,"facts_equal":%b}|}
          name (oracle_dt *. 1e3) (solver_dt *. 1e3) speedup
          (O2_util.Metrics.get m "pta.worklist_iters")
          (O2_util.Metrics.get m "pta.scc_collapsed")
          facts_equal)
      workloads
  in
  let runs =
    List.map
      (fun name ->
        let p = O2_workloads.Synth.program (O2_workloads.Synth.find name) in
        let cfg = O2.Config.with_metrics O2.Config.default in
        let r = O2.run cfg p in
        let m =
          match r.O2.config.O2.Config.metrics with
          | Some m -> m
          | None -> assert false
        in
        pf "%-12s %3d races  %.3fs\n" name (O2.n_races r) r.O2.elapsed;
        Printf.sprintf
          {|{"bench":"%s","policy":"O2","elapsed":%.6f,"races":%d,"metrics":%s}|}
          name r.O2.elapsed (O2.n_races r) (O2_util.Metrics.to_json m))
      workloads
  in
  let corpus_dir = "examples/programs" in
  let corpus_runs =
    if not (Sys.file_exists corpus_dir && Sys.is_directory corpus_dir) then []
    else
      match O2_batch.enumerate [ corpus_dir ] with
      | Error _ | Ok [] -> []
      | Ok files ->
          let r = O2_batch.run { O2_batch.default with O2_batch.jobs = 2 } files in
          pf "%-12s %3d races  %.3fs (%d files, %d failed)\n" "corpus"
            (O2_batch.total_races r) r.O2_batch.b_elapsed (List.length files)
            (O2_batch.n_failed r);
          List.map
            (fun (e : O2_batch.entry) ->
              Printf.sprintf
                {|{"bench":"corpus:%s","policy":"O2-batch","elapsed":%.6f,"races":%d,"status":"%s"}|}
                (Filename.basename e.O2_batch.e_file)
                e.O2_batch.e_elapsed e.O2_batch.e_races
                (match e.O2_batch.e_status with
                | `Ok -> "ok"
                | `Error _ -> "error"
                | `Timeout _ -> "timeout"))
            r.O2_batch.b_entries
  in
  let fuzz_runs =
    (* scaled-generator row: a fixed (seed, count) slice of the fuzz
       corpus is a deterministic workload, so its aggregate race total
       gates generator and engine drift the same way the named workloads
       do. No wall budget — only the deterministic step ceiling — so the
       row is machine-independent. *)
    let gates =
      { O2_fuzz.Fuzz.default_gates with O2_fuzz.Fuzz.g_wall = None }
    in
    let r = O2_fuzz.Fuzz.sweep ~gates ~seed:7 ~count:12 () in
    let ok, timeouts, divergent = O2_fuzz.Fuzz.counts r in
    let races =
      List.fold_left
        (fun a (e : O2_fuzz.Fuzz.entry) -> a + e.O2_fuzz.Fuzz.f_races)
        0 r.O2_fuzz.Fuzz.r_entries
    in
    pf "%-12s %3d races  %.3fs (%d programs, %d ok, %d divergent)\n"
      "fuzz:sweep" races r.O2_fuzz.Fuzz.r_elapsed r.O2_fuzz.Fuzz.r_count ok
      divergent;
    [
      Printf.sprintf
        {|{"bench":"fuzz:sweep","policy":"O2-diff","elapsed":%.6f,"programs":%d,"ok":%d,"timeouts":%d,"divergent":%d,"races":%d}|}
        r.O2_fuzz.Fuzz.r_elapsed r.O2_fuzz.Fuzz.r_count ok timeouts divergent
        races;
    ]
  in
  let runs = runs @ pta_runs @ stage_rows () @ corpus_runs @ fuzz_runs in
  let oc = open_out path in
  Printf.fprintf oc {|{"schema":"bench_o2/v1","runs":[%s]}|}
    (String.concat "," runs);
  output_char oc '\n';
  close_out oc;
  pf "wrote %s (%d runs)\n" path (List.length runs)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table kernel.          *)

let bechamel_suite () =
  rule "Bechamel micro-benchmarks (one per table)";
  let open Bechamel in
  let p_small =
    O2_workloads.Synth.program (O2_workloads.Synth.find "lusearch")
  in
  let p_med =
    O2_workloads.Synth.program (O2_workloads.Synth.find "memcached")
  in
  let a_med = Solver.analyze ~policy:(Context.Korigin 1) p_med in
  let g_med = O2_shb.Graph.build a_med in
  let model = O2_workloads.Models.find "memcached" in
  let p_model = model.program () in
  let tests =
    [
      (* Table 3/5 kernel: the OPA solver *)
      Test.make ~name:"table5_opa_solve"
        (Staged.stage (fun () ->
             ignore (Solver.analyze ~policy:(Context.Korigin 1) p_small)));
      (* Table 5 baseline: 2-CFA on the same program *)
      Test.make ~name:"table5_2cfa_solve"
        (Staged.stage (fun () ->
             ignore (Solver.analyze ~policy:(Context.Kcfa 2) p_small)));
      (* Table 6 kernel: whole O2 pipeline on the C-style app *)
      Test.make ~name:"table6_o2_pipeline"
        (Staged.stage (fun () -> ignore (O2.run O2.Config.default p_med)));
      (* Table 7 kernel: OSA scan on solved facts *)
      Test.make ~name:"table7_osa_scan"
        (Staged.stage (fun () -> ignore (O2_osa.Osa.run a_med)));
      (* Table 8 kernel: race detection on a built SHB graph *)
      Test.make ~name:"table8_detect"
        (Staged.stage (fun () -> ignore (O2_race.Detect.run g_med)));
      (* Table 9 kernel: SHB construction *)
      Test.make ~name:"table9_shb_build"
        (Staged.stage (fun () -> ignore (O2_shb.Graph.build a_med)));
      (* Table 10 kernel: full pipeline on a real-world model *)
      Test.make ~name:"table10_model"
        (Staged.stage (fun () -> ignore (O2_race.Detect.analyze p_model)));
      (* ablation kernel: naive pairwise detection *)
      Test.make ~name:"ablation_naive_detect"
        (Staged.stage (fun () -> ignore (O2_race.Naive.run g_med)));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let benchmark test =
    let quota = Time.second 0.5 in
    Benchmark.all (Benchmark.cfg ~quota ()) [ instance ] test
  in
  let analyze raw =
    Analyze.all
      (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |])
      instance raw
  in
  List.iter
    (fun test ->
      let results = analyze (benchmark test) in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> pf "%-26s %12.0f ns/run\n" name est
          | _ -> pf "%-26s (no estimate)\n" name)
        results)
    tests

(* ------------------------------------------------------------------ *)

let run_tables () =
  table3 ();
  table5 O2_workloads.Synth.(dacapo @ android @ distributed);
  table6 ();
  table7 ();
  table8 ();
  table9 ();
  table10 ();
  ablations ()

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  (match mode with
  | "tables" ->
      run_tables ();
      trajectory ()
  | "bech" -> bechamel_suite ()
  | "trajectory" -> trajectory ()
  | _ ->
      run_tables ();
      trajectory ();
      bechamel_suite ());
  pf "\nbench: done\n"
