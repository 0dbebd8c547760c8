(* The o2 command-line driver.

   Every subcommand that reads races, the SHB graph or OSA runs one
   analysis session ([session] below: parse, then O2.run) and prints from
   its stages; pts, origins and dot -g callgraph need only the solve.

   o2 analyze FILE.cir [--policy P] [--json] [--stats] [--entry E] ...
                                 races; --entry android[:ACTIVITY] runs a
                                 main-less app under the lifecycle
                                 harness (4.2)
   o2 batch DIR|FILE... [--jobs N] [--deadline S] [--max-steps N] [--cache F]
                                 corpus run with per-file fault isolation
   o2 osa FILE.cir               origin-sharing report
   o2 shb FILE.cir               dump the SHB graph
   o2 racerd FILE.cir            the syntactic baseline
   o2 deadlock FILE.cir          lock-order cycles
   o2 oversync FILE.cir          removable locks
   o2 pts FILE.cir C.m.v         points-to query
   o2 dot FILE.cir -g KIND      Graphviz (shb | origins | callgraph)
   o2 origins FILE.cir           entry points + attributes (Figure 2 view)
   o2 diff OLD.cir NEW.cir       differential report (exit 2 on regressions)
   o2 run FILE.cir [--seed N] [--dynamic] [--trace]
   o2 explore FILE.cir           systematic schedule DFS (+ POR)
   o2 dump FILE.cir              parse + pretty-print
   o2 fuzz [--seed N] [--count N] [--jobs N]
                                 differential fuzzing across all engines
   o2 model [NAME] [--fixed]     built-in Table 10 race models            *)

open Cmdliner

let policy_conv =
  (* one source of truth for spellings and the k >= 1 validation: a
     non-positive k used to slip through here and silently degrade to a
     context-insensitive analysis inside Context.truncate *)
  let parse s =
    match O2_pta.Context.policy_of_string s with
    | Ok p -> Ok p
    | Error msg -> Error (`Msg msg)
  in
  let print ppf p =
    Format.pp_print_string ppf (O2_pta.Context.policy_name p)
  in
  Arg.conv (parse, print)

let jobs_conv =
  (* shared by batch and fuzz: the same validation story as
     [policy_conv] — a non-positive count is a usage error at the CLI
     boundary, not something to patch up downstream *)
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some n -> Error (`Msg (Printf.sprintf "jobs must be >= 1, got %d" n))
    | None -> Error (`Msg (Printf.sprintf "expected a worker count, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let entry_conv =
  let parse s =
    match O2_frontend.Parser.entry_of_string s with
    | Ok e -> Ok e
    | Error msg -> Error (`Msg msg)
  in
  let print ppf e =
    Format.pp_print_string ppf (O2_frontend.Parser.entry_name e)
  in
  Arg.conv (parse, print)

let entry_arg =
  Arg.(
    value
    & opt entry_conv O2_frontend.Parser.Auto
    & info [ "entry" ] ~docv:"ENTRY"
        ~doc:
          "Entry-point selection: $(b,auto) (default: a program whose first \
           token is $(b,main) runs from it, anything else gets the Android \
           lifecycle harness), $(b,main) (require a main program), \
           $(b,android) or $(b,android:)$(i,CLASS) (force the harness, \
           optionally naming the main activity).")

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"CIR source file")

let policy_arg =
  Arg.(
    value
    & opt policy_conv (O2_pta.Context.Korigin 1)
    & info [ "policy"; "p" ] ~docv:"POLICY"
        ~doc:
          "Pointer-analysis policy: o2 (default), 0-ctx, $(i,k)-cfa, \
           $(i,k)-obj, $(i,k)-origin.")

let serial_arg =
  Arg.(
    value & flag
    & info [ "no-serial-events" ]
        ~doc:
          "Do not serialize event handlers under the implicit dispatcher \
           lock (§4.2 treats Android events as dispatched by one thread).")

let load ?entry file = O2_frontend.Parser.parse_file ?entry file

(* the analysis session: one solve, SHB graph, detection and OSA under
   [cfg] (default config) with [policy] *)
let session ?entry ?(cfg = O2.Config.default) file policy =
  O2.run { cfg with O2.Config.policy } (load ?entry file)

(* input errors (including an unreadable file that passed Cmdliner's
   existence check) become one stderr line and exit 1; anything else
   escapes *)
let handle_errors f =
  try f ()
  with e -> (
    match O2.error_message e with
    | Some msg ->
        prerr_endline msg;
        exit 1
    | None -> raise e)

(* ---- analyze ---- *)

let analyze_cmd =
  let no_region =
    Arg.(
      value & flag
      & info [ "no-lock-region" ] ~doc:"Disable lock-region access merging.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the race report as JSON on stdout.")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Attach a metrics sink to the pipeline and print per-stage \
             timers and counters (PAG sizes, worklist iterations, OSA \
             sharing, lockset-cache hit rate, race checks). With $(b,--json) \
             the report gains a $(b,metrics) field.")
  in
  let run file entry policy no_serial no_region json stats =
    handle_errors @@ fun () ->
    let format = if json then `Json else `Text in
    let cfg =
      {
        O2.Config.default with
        serial_events = not no_serial;
        lock_region = not no_region;
        metrics = (if stats then Some (O2_util.Metrics.create ()) else None);
      }
    in
    print_endline (O2.render ~format (session ~entry ~cfg file policy))
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Detect data races in a CIR program")
    Term.(
      const run $ file_arg $ entry_arg $ policy_arg $ serial_arg $ no_region
      $ json $ stats)

(* ---- batch ---- *)

let batch_cmd =
  let paths =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"PATH"
          ~doc:
            "CIR files and/or directories (a directory contributes its \
             $(b,.cir) files, non-recursively).")
  in
  let jobs =
    Arg.(
      value & opt jobs_conv 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Analyze up to $(docv) files concurrently on worker domains. \
             Each file's analysis is serial, so per-file reports are \
             byte-identical to $(b,o2 analyze) runs and the aggregate \
             report is deterministic for any $(docv).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the aggregate report (and the embedded per-file reports) \
             as JSON (schema $(b,o2_batch/v1)).")
  in
  let per_file =
    Arg.(
      value & flag
      & info [ "per-file" ]
          ~doc:
            "In text mode, print every successful file's full race report \
             (exactly the serial $(b,o2 analyze) output) before the \
             aggregate table.")
  in
  let deadline =
    Arg.(
      value & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Per-file wall-clock budget. A file that exceeds it is reported \
             as a $(b,timeout) entry; the rest of the corpus still runs.")
  in
  let max_steps =
    Arg.(
      value & opt (some int) None
      & info [ "max-steps" ] ~docv:"N"
          ~doc:
            "Per-file ceiling on pointer-analysis worklist steps; exceeding \
             it yields a $(b,timeout) entry.")
  in
  let cache =
    Arg.(
      value & opt (some string) None
      & info [ "cache" ] ~docv:"FILE"
          ~doc:
            "On-disk result cache. Files whose source digest and analysis \
             configuration match a cached result are served from it \
             (reported as $(b,cached)) without re-analysis.")
  in
  let run paths entry policy no_serial jobs json per_file deadline max_steps
      cache =
    let cfg =
      {
        O2_batch.default with
        O2_batch.policy;
        entry;
        serial_events = not no_serial;
        jobs;
        format = (if json then `Json else `Text);
        wall = deadline;
        max_steps;
        cache_file = cache;
      }
    in
    match O2_batch.enumerate paths with
    | Error msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 2
    | Ok [] ->
        Printf.eprintf "error: no .cir files found under the given paths\n";
        exit 2
    | Ok files ->
        let report = O2_batch.run cfg files in
        print_string (O2_batch.render ~per_file report);
        exit (O2_batch.exit_code report)
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Analyze a corpus of CIR files with per-file fault isolation and \
          resource budgets"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Every file runs inside a fault boundary: parse/lexical \
              errors, ill-formed programs, uncaught analysis exceptions \
              and exhausted budgets each produce a structured per-file \
              failure entry instead of aborting the corpus run.";
           `S "EXIT STATUS";
           `P "0 when every file analyzed successfully;";
           `P "1 when at least one file failed or exceeded its budget;";
           `P "2 on usage errors (no files found, unreadable path).";
         ])
    Term.(
      const run $ paths $ entry_arg $ policy_arg $ serial_arg $ jobs $ json
      $ per_file $ deadline $ max_steps $ cache)

(* ---- osa ---- *)

let osa_cmd =
  let run file policy =
    handle_errors @@ fun () ->
    let r = session file policy in
    Format.printf "%a@." (O2.pp_sharing r) ()
  in
  Cmd.v
    (Cmd.info "osa" ~doc:"Print the origin-sharing analysis report")
    Term.(const run $ file_arg $ policy_arg)

(* ---- shb ---- *)

let shb_cmd =
  let run file policy no_serial =
    handle_errors @@ fun () ->
    let cfg = { O2.Config.default with serial_events = not no_serial } in
    let r = session ~cfg file policy in
    Format.printf "%a@." O2_shb.Graph.pp r.O2.graph
  in
  Cmd.v
    (Cmd.info "shb" ~doc:"Dump the static happens-before graph")
    Term.(const run $ file_arg $ policy_arg $ serial_arg)

(* ---- racerd ---- *)

let racerd_cmd =
  let run file =
    handle_errors @@ fun () ->
    let p = load file in
    let report = O2_racerd.Racerd.analyze p in
    Format.printf "%d warning(s)@." (O2_racerd.Racerd.n_warnings report);
    List.iter
      (fun w -> Format.printf "%a@." O2_racerd.Racerd.pp_warning w)
      report.O2_racerd.Racerd.warnings
  in
  Cmd.v
    (Cmd.info "racerd"
       ~doc:"Run the RacerD-style syntactic baseline detector")
    Term.(const run $ file_arg)

(* ---- pts ---- *)

let pts_cmd =
  let target =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"CLASS.METHOD.VAR"
          ~doc:"The local variable to query, e.g. Worker.run.d")
  in
  let run file policy target =
    handle_errors @@ fun () ->
    let p = load file in
    match String.split_on_char '.' target with
    | [ cls; meth; var ] ->
        let a = O2_pta.Solver.analyze ~policy p in
        let objs = O2_pta.Query.points_to a ~cls ~meth ~var in
        if objs = [] then
          Format.printf "%s: empty points-to set (unreached or never assigned)@."
            target
        else
          List.iter
            (fun oi -> Format.printf "%a@." O2_pta.Query.pp_obj_info oi)
            objs
    | _ ->
        Printf.eprintf "expected CLASS.METHOD.VAR, got %s\n" target;
        exit 1
  in
  Cmd.v
    (Cmd.info "pts" ~doc:"Print the points-to set of a local variable")
    Term.(const run $ file_arg $ policy_arg $ target)

(* ---- dot ---- *)

let dot_cmd =
  let what =
    Arg.(
      value
      & opt (enum [ ("shb", `Shb); ("origins", `Origins); ("callgraph", `Cg) ])
          `Shb
      & info [ "graph"; "g" ] ~docv:"KIND"
          ~doc:"Which graph to export: $(b,shb), $(b,origins) or \
                $(b,callgraph).")
  in
  let run file policy what =
    handle_errors @@ fun () ->
    match what with
    | `Shb -> Format.printf "%a" O2_shb.Dot.shb (session file policy).O2.graph
    | `Origins ->
        Format.printf "%a" O2_shb.Dot.origins (session file policy).O2.graph
    | `Cg ->
        Format.printf "%a" O2_shb.Dot.callgraph
          (O2_pta.Solver.analyze ~policy (load file))
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Export the SHB / origin / call graph as Graphviz")
    Term.(const run $ file_arg $ policy_arg $ what)

(* ---- deadlock ---- *)

let deadlock_cmd =
  let run file policy =
    handle_errors @@ fun () ->
    let report = O2_race.Deadlock.run (session file policy).O2.graph in
    Format.printf "%d potential deadlock(s)@."
      (O2_race.Deadlock.n_deadlocks report);
    List.iter
      (fun c -> Format.printf "%a@." O2_race.Deadlock.pp_cycle c)
      report.O2_race.Deadlock.cycles
  in
  Cmd.v
    (Cmd.info "deadlock" ~doc:"Detect lock-order cycles (potential deadlocks)")
    Term.(const run $ file_arg $ policy_arg)

(* ---- oversync ---- *)

let oversync_cmd =
  let run file policy =
    handle_errors @@ fun () ->
    let r = session file policy in
    let report = O2_race.Oversync.run r.O2.solver r.O2.osa in
    Format.printf "%d over-synchronization finding(s)@."
      (O2_race.Oversync.n_findings report);
    List.iter
      (fun f -> Format.printf "%a@." O2_race.Oversync.pp_finding f)
      report.O2_race.Oversync.findings
  in
  Cmd.v
    (Cmd.info "oversync"
       ~doc:"Find locks that only guard origin-local data (removable)")
    Term.(const run $ file_arg $ policy_arg)

(* ---- origins ---- *)

let origins_cmd =
  let run file policy =
    handle_errors @@ fun () ->
    let p = load file in
    let a = O2_pta.Solver.analyze ~policy p in
    let pag = a.O2_pta.Solver.pag in
    Format.printf "%d origin(s) beside main:@." (O2_pta.Solver.n_origins a);
    Array.iteri
      (fun i og ->
        if i > 0 then begin
          Format.printf "  %a" O2_pta.Context.pp_origin og;
          let attrs = O2_pta.Solver.origin_attrs a i in
          if attrs <> [] then begin
            Format.printf "  attributes:";
            List.iter
              (fun oid ->
                let o = O2_pta.Pag.obj pag oid in
                Format.printf " %s@%d" o.O2_pta.Pag.ob_class o.O2_pta.Pag.ob_site)
              attrs
          end;
          Format.printf "@."
        end)
      (O2_pta.Solver.origins a);
    Array.iter
      (fun (sp : O2_pta.Solver.spawn) ->
        if sp.sp_kind <> `Main then
          Format.printf "  spawn: %s@."
            (O2_race.Report.origin_name a sp.sp_id))
      (a.O2_pta.Solver.spawns)
  in
  Cmd.v
    (Cmd.info "origins"
       ~doc:
         "List the origins and their attributes (the Figure 2 view: entry \
          point + data pointers)")
    Term.(const run $ file_arg $ policy_arg)

(* ---- diff ---- *)

let diff_cmd =
  (* plain strings, not [Arg.file]: a missing path must flow through the
     per-side fault boundary below (one stderr line, exit 1), not
     cmdliner's usage error *)
  let old_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OLD" ~doc:"Old version")
  in
  let new_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"NEW" ~doc:"New version")
  in
  (* each side gets its own fault boundary, batch-style: a broken version
     becomes a structured error entry plus one stderr line instead of
     aborting the whole comparison *)
  let side name file policy =
    let keys () =
      let r = session file policy in
      O2_race.Diff.keys r.O2.solver r.O2.report
    in
    match keys () with
    | ks -> Ok ks
    | exception e ->
        let msg =
          match O2.error_message e with
          | Some msg -> msg
          | None -> "analyzer failure: " ^ Printexc.to_string e
        in
        Error (Printf.sprintf "%s %s: %s" name file msg)
  in
  let run old_f new_f policy =
    match (side "old" old_f policy, side "new" new_f policy) with
    | Ok old_keys, Ok new_keys ->
        let d = O2_race.Diff.align old_keys new_keys in
        Format.printf "%a@." O2_race.Diff.pp d;
        if d.O2_race.Diff.introduced <> [] then exit 2
    | a, b ->
        (match a with Ok _ -> () | Error msg -> Printf.eprintf "error: %s\n" msg);
        (match b with Ok _ -> () | Error msg -> Printf.eprintf "error: %s\n" msg);
        exit 1
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare the race reports of two program versions (exit 2 when \
          races were introduced)"
       ~man:
         [
           `S "EXIT STATUS";
           `P "0 when both versions analyzed and no race was introduced;";
           `P "1 when either version failed to parse or analyze;";
           `P "2 when the comparison succeeded but races were introduced.";
         ])
    Term.(const run $ old_arg $ new_arg $ policy_arg)

(* ---- run ---- *)

let pp_event ppf (e : O2_runtime.Interp.event) =
  match e with
  | Eread { task; addr; field; _ } ->
      Format.fprintf ppf "[t%d] read  #%d.%s" task addr field
  | Ewrite { task; addr; field; _ } ->
      Format.fprintf ppf "[t%d] write #%d.%s" task addr field
  | Esread { task; cls; field; _ } ->
      Format.fprintf ppf "[t%d] read  %s::%s" task cls field
  | Eswrite { task; cls; field; _ } ->
      Format.fprintf ppf "[t%d] write %s::%s" task cls field
  | Eacquire { task; lock } -> Format.fprintf ppf "[t%d] lock #%d" task lock
  | Erelease { task; lock } -> Format.fprintf ppf "[t%d] unlock #%d" task lock
  | Espawn { parent; child } ->
      Format.fprintf ppf "[t%d] spawn t%d" parent child
  | Ejoin { parent; child } -> Format.fprintf ppf "[t%d] join t%d" parent child
  | Esignal { task; sem } -> Format.fprintf ppf "[t%d] signal #%d" task sem
  | Ewait { task; sem } -> Format.fprintf ppf "[t%d] wait #%d" task sem

let run_cmd =
  let seed =
    Arg.(value & opt int 0 & info [ "seed" ] ~doc:"Scheduler RNG seed.")
  in
  let dynamic =
    Arg.(
      value & flag
      & info [ "dynamic" ]
          ~doc:"Check the execution with the vector-clock race detector.")
  in
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ] ~doc:"Print every memory/synchronization event.")
  in
  let run file seed dynamic trace =
    handle_errors @@ fun () ->
    let p = load file in
    if dynamic then begin
      let races = O2_runtime.Dynrace.check ~seeds:[ seed ] p in
      Printf.printf "%d dynamic race(s)\n" (List.length races);
      List.iter
        (fun (r : O2_runtime.Dynrace.race) ->
          Printf.printf "  race on %s (stmts %d and %d)\n" r.d_field r.d_sid_a
            r.d_sid_b)
        races
    end
    else begin
      let on_event =
        if trace then fun e -> Format.printf "%a@." pp_event e
        else fun _ -> ()
      in
      let o = O2_runtime.Interp.run ~seed ~on_event p in
      Printf.printf "executed %d steps, %s\n" o.O2_runtime.Interp.steps
        (if o.O2_runtime.Interp.deadlocked then "DEADLOCK"
         else if o.O2_runtime.Interp.completed then "completed"
         else "step limit reached")
    end
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute a CIR program on the concrete interpreter")
    Term.(const run $ file_arg $ seed $ dynamic $ trace)

(* ---- explore ---- *)

let explore_cmd =
  let max_runs =
    Arg.(
      value & opt int 2000
      & info [ "max-runs" ] ~doc:"Execution budget for the DFS.")
  in
  let run file max_runs =
    handle_errors @@ fun () ->
    let p = load file in
    let r = O2_runtime.Explore.explore ~max_runs p in
    Printf.printf "%d run(s)%s, %d race(s), %d deadlocking schedule(s)\n"
      r.O2_runtime.Explore.runs
      (if r.O2_runtime.Explore.exhaustive then " (exhaustive)" else "")
      (List.length r.O2_runtime.Explore.races)
      r.O2_runtime.Explore.deadlocks;
    List.iter
      (fun (d : O2_runtime.Dynrace.race) ->
        Printf.printf "  race on %s (stmts %d and %d)\n" d.d_field d.d_sid_a
          d.d_sid_b)
      r.O2_runtime.Explore.races
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Systematically explore schedules (DFS + partial-order reduction) \
          and report every dynamically-realizable race and deadlock")
    Term.(const run $ file_arg $ max_runs)

(* ---- dump ---- *)

let dump_cmd =
  let run file =
    handle_errors @@ fun () ->
    let p = load file in
    Format.printf "%a" O2_ir.Pp.pp_program p
  in
  Cmd.v
    (Cmd.info "dump" ~doc:"Parse, resolve and pretty-print a CIR program")
    Term.(const run $ file_arg)

(* ---- fuzz ---- *)

let fuzz_cmd =
  let seed =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Corpus seed. Program $(i,i) of a run is generated \
             deterministically from (seed, $(i,i)), independent of \
             $(b,--jobs).")
  in
  let count =
    Arg.(
      value & opt int 100
      & info [ "count" ] ~docv:"N" ~doc:"Number of programs to generate.")
  in
  let jobs =
    Arg.(
      value & opt jobs_conv 1
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Check up to $(docv) programs concurrently on worker domains. \
             Results are deterministic for any $(docv).")
  in
  let deadline =
    Arg.(
      value & opt (some float) (Some 60.0)
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Per-program wall-clock budget (default 60); an exceeded budget \
             is a $(b,timeout) entry, not a divergence.")
  in
  let max_steps =
    Arg.(
      value & opt (some int) (Some 20_000_000)
      & info [ "max-steps" ] ~docv:"N"
          ~doc:"Per-program pointer-analysis worklist step ceiling.")
  in
  let out =
    Arg.(
      value & opt string "fuzz-out"
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Directory for minimized $(b,.cir) reproducers.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the sweep report as JSON (o2_fuzz/v1).")
  in
  let no_shrink =
    Arg.(
      value & flag
      & info [ "no-shrink" ]
          ~doc:"Write reproducers from the original specs without shrinking.")
  in
  let run seed count jobs policy deadline max_steps out json no_shrink =
    let gates =
      {
        O2_fuzz.Fuzz.default_gates with
        O2_fuzz.Fuzz.g_policy = Some policy;
        g_wall = deadline;
        g_max_steps = max_steps;
      }
    in
    let r = O2_fuzz.Fuzz.sweep ~jobs ~gates ~seed ~count () in
    let divergent = O2_fuzz.Fuzz.divergent r in
    List.iter
      (fun (e : O2_fuzz.Fuzz.entry) ->
        let e =
          if no_shrink then e
          else
            let classes = O2_fuzz.Fuzz.divergence_classes e.f_status in
            let spec = O2_fuzz.Fuzz.shrink ~gates ~classes e.f_spec in
            { e with O2_fuzz.Fuzz.f_spec = spec }
        in
        let path = O2_fuzz.Fuzz.write_reproducer ~dir:out ~seed:r.r_seed e in
        Printf.eprintf "o2 fuzz: divergence at index %d, reproducer %s\n"
          e.O2_fuzz.Fuzz.f_index path)
      divergent;
    print_string
      (O2_fuzz.Fuzz.render ~format:(if json then `Json else `Text) r);
    exit (O2_fuzz.Fuzz.exit_code r)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: generate CIR programs and cross-check every \
          detection engine"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Generates $(b,--count) programs from the QCheck shape space \
              and drives each through the agreement-class differential \
              harness: every pipeline stage against its reference engine, \
              naive = optimized witnesses, lock-region merge containment, the \
              RacerD must-race subset and dynamic-witness containment, \
              plus a printer/parser round trip. Any divergence is shrunk \
              to a minimized $(b,.cir) reproducer under $(b,--out).";
           `S "EXIT STATUS";
           `P "0 when every program agreed (timeouts are reported but OK);";
           `P "1 when at least one divergence was found.";
         ])
    Term.(
      const run $ seed $ count $ jobs $ policy_arg $ deadline $ max_steps
      $ out $ json $ no_shrink)

(* ---- model ---- *)

let model_cmd =
  let model_name =
    Arg.(
      value & pos 0 (some string) None
      & info [] ~docv:"NAME" ~doc:"Model name (omit to list all).")
  in
  let fixed =
    Arg.(value & flag & info [ "fixed" ] ~doc:"Analyze the repaired variant.")
  in
  let run name fixed =
    match name with
    | None ->
        List.iter
          (fun (m : O2_workloads.Models.model) ->
            Printf.printf "%-10s %d race(s): %s\n" m.name m.expected_races
              m.describe)
          O2_workloads.Models.all
    | Some n -> (
        match O2_workloads.Models.find n with
        | m ->
            let p = if fixed then m.fixed () else m.program () in
            let r = O2.run O2.Config.default p in
            Format.printf "%a@." (O2.pp_report r) ()
        | exception Not_found ->
            Printf.eprintf "unknown model %s\n" n;
            exit 1)
  in
  Cmd.v
    (Cmd.info "model"
       ~doc:"Analyze a built-in real-world race model (Table 10)")
    Term.(const run $ model_name $ fixed)

let () =
  let info =
    Cmd.info "o2" ~version:"1.0.0"
      ~doc:"Static race detection with origins (PLDI 2021 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            analyze_cmd; batch_cmd; osa_cmd; shb_cmd; racerd_cmd;
            deadlock_cmd; oversync_cmd; pts_cmd; dot_cmd; origins_cmd;
            diff_cmd; run_cmd; explore_cmd; dump_cmd; fuzz_cmd;
            model_cmd;
          ]))
