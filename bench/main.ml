(* Benchmark harness: regenerates every table of the paper's evaluation
   (§5, Tables 3 and 5–10) on the synthetic workload suites and the
   real-world race models, plus the §4.1 ablations.

     dune exec bench/main.exe

   Absolute numbers are machine- and substrate-dependent; the claims being
   reproduced are the *shapes*: who wins, by what rough factor, and where
   the precision spread comes from. EXPERIMENTS.md records paper-vs-measured
   for every table. The exact counts are pinned in
   test/golden/workloads.counters.expected; end-to-end timing claims
   belong to perfbench/. *)

open O2_pta

let pf = Printf.printf

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* median of [runs] repetitions — timings at this scale are noisy.
   [runs] must be >= 1; an even [runs] averages the two middle samples
   (picking the upper-middle one alone biases the estimate upward). *)
let median_time ~runs f =
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

(* repetitions per median: Table 3's scaling curves, every other timing *)
let scaling_runs = 5
let runs = 3

(* one line naming what produced the tables, so a pasted table can be
   traced to its code: commit, OCaml version, cores, runs per median *)
let header () =
  let commit =
    try
      let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
      let line = try input_line ic with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> line
      | _ -> "unknown"
    with Unix.Unix_error _ | Sys_error _ -> "unknown"
  in
  pf "o2 bench: commit %s, OCaml %s, %d recommended domain(s), median of %d \
      runs (Table 3: %d)\n"
    commit Sys.ocaml_version
    (Domain.recommended_domain_count ())
    runs scaling_runs

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
              median_time ~runs:scaling_runs (fun () ->
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
  let dt = median_time ~runs (fun () -> ignore (Solver.analyze ~policy:pol p)) in
  (a, dt)

(* the rd:* work: solve, SHB and detection under [pol]; [naive] is the D4
   baseline, pairwise DFS over an SHB graph without lock-region merging *)
let solve_detect ?(naive = false) pol p =
  let a = Solver.analyze ~policy:pol p in
  if naive then O2_race.Naive.run (O2_shb.Graph.build ~lock_region:false a)
  else O2_race.Detect.run (O2_shb.Graph.build a)

let detect_time pol p =
  let report = solve_detect pol p in
  let dt = median_time ~runs (fun () -> ignore (solve_detect pol p)) in
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
          let naive = name = "0-ctx" in
          let dt =
            median_time ~runs (fun () -> ignore (solve_detect ~naive pol p))
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
      let r = (O2.run O2.Config.default (m.program ())).O2.report in
      let rf = (O2.run O2.Config.default (m.fixed ())).O2.report in
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

  (* 1: integer-id HB + precomputed origin-level closure vs naive per-pair DFS *)
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
    (O2_shb.Graph.n_accesses g_nr)
    (O2_shb.Graph.n_accesses g_merged)
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

let () =
  header ();
  table3 ();
  table5 O2_workloads.Synth.(dacapo @ android @ distributed);
  table6 ();
  table7 ();
  table8 ();
  table9 ();
  table10 ();
  ablations ();
  pf "\nbench: done\n"
