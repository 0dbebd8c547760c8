(* Differential fuzzer: spec validation of the new generator knobs,
   sweep determinism and cleanliness, shrinker fixpoint behaviour,
   reproducer emission, and the minimized regression programs the corpus
   sweeps forced into the repo. *)

open O2_workloads
open O2_fuzz

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let raises_field field f =
  match f () with
  | () -> Alcotest.failf "expected Invalid_argument naming %s" field
  | exception Invalid_argument msg ->
      check_bool
        (Printf.sprintf "message %S names %s" msg field)
        true (contains msg field)

(* ---------------- validation ---------------- *)

let test_validate_new_knobs () =
  let d = Synth.default in
  raises_field "s_arrays" (fun () ->
      Synth.validate { d with Synth.s_arrays = -1 });
  raises_field "s_statics" (fun () ->
      Synth.validate { d with Synth.s_statics = -2 });
  raises_field "s_join" (fun () ->
      Synth.validate { d with Synth.s_thread_classes = 0; s_join = true });
  raises_field "s_signal" (fun () ->
      Synth.validate { d with Synth.s_thread_classes = 0; s_signal = true });
  (* the combined stress spec exercises every new knob and must be valid *)
  Synth.validate (Synth.find "hbmix")

(* ---------------- differential cleanliness ---------------- *)

let outcome_clean name o =
  check_int
    (name ^ " divergences")
    0
    (List.length o.Differential.o_divergences)

let test_named_specs_clean () =
  List.iter
    (fun name ->
      let o = Differential.check (Synth.program (Synth.find name)) in
      outcome_clean name o;
      check_bool (name ^ " found races") true (o.Differential.o_races > 0))
    [ "hbmix"; "chainstorm"; "memcached" ]

let test_hbmix_exercises_everything () =
  (* the stress spec must drive every engine: naive in range, must-race
     pairs non-vacuous, dynamic witnesses observed *)
  let o = Differential.check (Synth.program (Synth.find "hbmix")) in
  check_bool "naive ran" true o.Differential.o_naive_ran;
  check_bool "must pairs" true (o.Differential.o_must_pairs > 0);
  match o.Differential.o_dynamic with
  | `Ran n -> check_bool "dynamic races" true (n > 0)
  | `Skipped -> Alcotest.fail "dynamic stage skipped on hbmix"
  | `Runtime_error e -> Alcotest.failf "dynamic stage errored: %s" e

(* the reference detector checks the budget before each target group, so
   an expired deadline stops it rather than firing after it returns *)
let test_ref_stages_budget () =
  let a = O2_pta.Solver.analyze (Synth.program (Synth.find "memcached")) in
  let g = O2_shb.Graph.build a in
  let r = O2_race.Detect.run g in
  check_int "agrees without a budget" 0 (List.length (Ref_stages.check a g r));
  match Ref_stages.check ~budget:(O2_util.Budget.make ~wall:0.0 ()) a g r with
  | _ -> Alcotest.fail "expected Budget.Exhausted `Wall"
  | exception O2_util.Budget.Exhausted `Wall -> ()

(* ---------------- sweep ---------------- *)

let test_sweep_deterministic () =
  let fingerprint r =
    List.map
      (fun e ->
        ( e.Fuzz.f_index,
          e.Fuzz.f_races,
          e.Fuzz.f_stmts,
          e.Fuzz.f_origins,
          Fuzz.divergence_classes e.Fuzz.f_status ))
      r.Fuzz.r_entries
  in
  let a = Fuzz.sweep ~seed:5 ~count:6 () in
  let b = Fuzz.sweep ~seed:5 ~count:6 () in
  check_bool "same fingerprint" true (fingerprint a = fingerprint b);
  let ok, timeouts, divergent = Fuzz.counts a in
  check_int "all ok" 6 ok;
  check_int "no timeouts" 0 timeouts;
  check_int "no divergences" 0 divergent;
  check_int "exit code" 0 (Fuzz.exit_code a);
  check_int "entries in index order" 5
    (List.nth a.Fuzz.r_entries 5).Fuzz.f_index

let test_render_formats () =
  let r = Fuzz.sweep ~seed:11 ~count:2 () in
  let text = Fuzz.render r in
  check_bool "text mentions seed" true (contains text "seed 11");
  let json = Fuzz.render ~format:`Json r in
  check_bool "json schema" true (contains json "o2_fuzz/v1");
  check_bool "json seed" true (contains json "\"seed\":11")

(* ---------------- shrinker ---------------- *)

let test_shrink_fixpoint_on_clean_spec () =
  (* a spec that never diverges shrinks to itself: every candidate fails
     [still_fails], so the greedy loop stops at the original *)
  let s = Synth.spec_of_seed ~seed:5 ~index:0 in
  let shrunk = Fuzz.shrink ~max_checks:40 ~classes:[ "oracle" ] s in
  check_string "unchanged" (Format.asprintf "%a" Synth.pp_spec s)
    (Format.asprintf "%a" Synth.pp_spec shrunk);
  Synth.validate shrunk

(* ---------------- reproducers ---------------- *)

let test_write_reproducer () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "o2-fuzz-test-%d" (Unix.getpid ()))
  in
  let entry =
    {
      Fuzz.f_index = 3;
      f_spec = { Synth.default with Synth.s_name = "repro" };
      f_status =
        `Divergent
          [ { Differential.dv_class = "naive"; dv_detail = "site mismatch" } ];
      f_races = 1;
      f_stmts = 10;
      f_origins = 2;
      f_elapsed = 0.0;
    }
  in
  let path = Fuzz.write_reproducer ~dir ~seed:9 entry in
  check_bool "named by class" true (contains path "seed9-i3-naive.cir");
  let src = In_channel.with_open_text path In_channel.input_all in
  check_bool "spec header" true (contains src "repro");
  check_bool "divergence header" true (contains src "site mismatch");
  (* the body below the header comments must parse back *)
  let p = O2_frontend.Parser.parse_string ~file:path src in
  check_bool "parses" true (O2_ir.Program.n_stmts p > 0);
  Sys.remove path;
  Unix.rmdir dir

(* ---------------- regression: fuzz-found divergences ---------------- *)

(* Minimized from `o2 fuzz --seed 42 --policy 0-ctx` (index 9), also
   committed as test/golden/wrapper-selfpar.cir: a spawn wrapper called
   twice collapses to one abstract origin under 0-ctx, which must be
   self-parallel or the dynamically-witnessed self-race goes unreported. *)
let wrapper_selfpar_src =
  "main Main;\n\
   class SharedState { field race0; }\n\
   class Worker extends Thread {\n\
  \  field shared;\n\
  \  method init(s) { this.shared = s; }\n\
  \  method run() {\n\
  \    local sh, r;\n\
  \    sh = this.shared;\n\
  \    sh.race0 = sh;\n\
  \    r = sh.race0;\n\
  \    return;\n\
  \  }\n\
   }\n\
   class Factory {\n\
  \  static method spawn(s) {\n\
  \    local t;\n\
  \    t = new Worker(s);\n\
  \    start t;\n\
  \    return;\n\
  \  }\n\
   }\n\
   class Main {\n\
  \  static method main() {\n\
  \    local s;\n\
  \    s = new SharedState();\n\
  \    Factory::spawn(s);\n\
  \    Factory::spawn(s);\n\
  \    return;\n\
  \  }\n\
   }\n"

let test_wrapper_selfpar_regression () =
  let p =
    O2_frontend.Parser.parse_string ~file:"wrapper-selfpar.cir"
      wrapper_selfpar_src
  in
  (* used to diverge with [dynamic]: the interpreter witnessed the
     write-write race on race0 that 0-ctx failed to report *)
  List.iter
    (fun policy ->
      let o = Differential.check ~policy p in
      outcome_clean (O2_pta.Context.policy_name policy) o)
    [
      O2_pta.Context.Insensitive;
      O2_pta.Context.Kcfa 2;
      O2_pta.Context.Kobj 2;
      O2_pta.Context.Korigin 1;
    ];
  let o = Differential.check ~policy:O2_pta.Context.Insensitive p in
  check_int "0-ctx reports the self-races" 3 o.Differential.o_races

let () =
  Alcotest.run "fuzz"
    [
      ( "validate",
        [
          Alcotest.test_case "new knobs" `Quick test_validate_new_knobs;
        ] );
      ( "differential",
        [
          Alcotest.test_case "named specs clean" `Quick test_named_specs_clean;
          Alcotest.test_case "hbmix exercises everything" `Quick
            test_hbmix_exercises_everything;
          Alcotest.test_case "reference stages poll the budget" `Quick
            test_ref_stages_budget;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "deterministic" `Quick test_sweep_deterministic;
          Alcotest.test_case "render formats" `Quick test_render_formats;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "fixpoint on clean spec" `Quick
            test_shrink_fixpoint_on_clean_spec;
        ] );
      ( "reproducer",
        [
          Alcotest.test_case "write + reparse" `Quick test_write_reproducer;
        ] );
      ( "regression",
        [
          Alcotest.test_case "wrapper self-parallel (0-ctx)" `Quick
            test_wrapper_selfpar_regression;
        ] );
    ]
