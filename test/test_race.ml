open O2_ir.Builder
open O2_pta

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let o2_races ?(policy = Context.Korigin 1) ?(serial_events = true) p =
  let _, _, r = O2_race.Detect.analyze ~policy ~serial_events p in
  O2_race.Detect.n_races r

(* two threads, shared field, no lock: 1 race *)
let race1 () =
  prog ~main:"M"
    [
      cls "Data" ~fields:[ "v" ] [];
      cls "W" ~super:"Thread" ~fields:[ "s" ]
        [
          meth "init" [ "s" ] [ fwrite "this" "s" "s" ];
          meth "run" [] [ fread "d" "this" "s"; fwrite "d" "v" "d"; ret None ];
        ];
      cls "M"
        [
          meth ~static:true "main" []
            [
              new_ "d" "Data" [];
              new_ "w1" "W" [ "d" ];
              new_ "w2" "W" [ "d" ];
              start "w1";
              start "w2";
            ];
        ];
    ]

let test_basic_race () = check_int "1 race" 1 (o2_races (race1 ()))

let test_lock_prevents () =
  let p =
    prog ~main:"M"
      [
        cls "Data" ~fields:[ "v" ] [];
        cls "W" ~super:"Thread" ~fields:[ "s"; "l" ]
          [
            meth "init" [ "s"; "l" ]
              [ fwrite "this" "s" "s"; fwrite "this" "l" "l" ];
            meth "run" []
              [
                fread "d" "this" "s";
                fread "l" "this" "l";
                sync "l" [ fwrite "d" "v" "d" ];
                ret None;
              ];
          ];
        cls "M"
          [
            meth ~static:true "main" []
              [
                new_ "d" "Data" [];
                new_ "l" "Data" [];
                new_ "w1" "W" [ "d"; "l" ];
                new_ "w2" "W" [ "d"; "l" ];
                start "w1";
                start "w2";
              ];
          ];
      ]
  in
  check_int "no race" 0 (o2_races p)

let test_different_locks_race () =
  (* each thread has its own lock: not protected *)
  let p =
    prog ~main:"M"
      [
        cls "Data" ~fields:[ "v" ] [];
        cls "W" ~super:"Thread" ~fields:[ "s"; "l" ]
          [
            meth "init" [ "s"; "l" ]
              [ fwrite "this" "s" "s"; fwrite "this" "l" "l" ];
            meth "run" []
              [
                fread "d" "this" "s";
                fread "l" "this" "l";
                sync "l" [ fwrite "d" "v" "d" ];
                ret None;
              ];
          ];
        cls "M"
          [
            meth ~static:true "main" []
              [
                new_ "d" "Data" [];
                new_ "l1" "Data" [];
                new_ "l2" "Data" [];
                new_ "w1" "W" [ "d"; "l1" ];
                new_ "w2" "W" [ "d"; "l2" ];
                start "w1";
                start "w2";
              ];
          ];
      ]
  in
  check_int "distinct locks: race" 1 (o2_races p)

let test_join_prevents () =
  let p =
    prog ~main:"M"
      [
        cls "Data" ~fields:[ "v" ] [];
        cls "W" ~super:"Thread" ~fields:[ "s" ]
          [
            meth "init" [ "s" ] [ fwrite "this" "s" "s" ];
            meth "run" [] [ fread "d" "this" "s"; fwrite "d" "v" "d"; ret None ];
          ];
        cls "M"
          [
            meth ~static:true "main" []
              [
                new_ "d" "Data" [];
                new_ "w" "W" [ "d" ];
                start "w";
                join "w";
                fwrite "d" "v" "d";  (* ordered after the thread *)
              ];
          ];
      ]
  in
  check_int "joined: no race" 0 (o2_races p)

let test_read_read_no_race () =
  let p =
    prog ~main:"M"
      [
        cls "Data" ~fields:[ "v" ] [];
        cls "R" ~super:"Thread" ~fields:[ "s" ]
          [
            meth "init" [ "s" ] [ fwrite "this" "s" "s" ];
            meth "run" [] [ fread "d" "this" "s"; fread "x" "d" "v"; ret None ];
          ];
        cls "M"
          [
            meth ~static:true "main" []
              [
                new_ "d" "Data" [];
                new_ "r1" "R" [ "d" ];
                new_ "r2" "R" [ "d" ];
                start "r1";
                start "r2";
              ];
          ];
      ]
  in
  check_int "reads never race" 0 (o2_races p)

let test_event_thread_race_but_not_event_event () =
  let p =
    prog ~main:"M"
      [
        cls "Data" ~fields:[ "v" ] [];
        cls "H" ~super:"Handler" ~fields:[ "s" ]
          [
            meth "init" [ "s" ] [ fwrite "this" "s" "s" ];
            meth "handle" []
              [ fread "d" "this" "s"; fwrite "d" "v" "d"; ret None ];
          ];
        cls "M"
          [
            meth ~static:true "main" []
              [
                new_ "d" "Data" [];
                new_ "h1" "H" [ "d" ];
                new_ "h2" "H" [ "d" ];
                post "h1" [];
                post "h2" [];
              ];
          ];
      ]
  in
  check_int "handlers serialized" 0 (o2_races p);
  check_bool "without dispatcher: races" true
    (o2_races ~serial_events:false p > 0)

let test_self_parallel_race () =
  (* one thread class started in a loop, unprotected write to shared *)
  let p =
    prog ~main:"M"
      [
        cls "Data" ~fields:[ "v" ] [];
        cls "W" ~super:"Thread" ~fields:[ "s" ]
          [
            meth "init" [ "s" ] [ fwrite "this" "s" "s" ];
            meth "run" [] [ fread "d" "this" "s"; fwrite "d" "v" "d"; ret None ];
          ];
        cls "M"
          [
            meth ~static:true "main" []
              [
                new_ "d" "Data" [];
                while_ [ new_ "w" "W" [ "d" ]; start "w" ];
              ];
          ];
      ]
  in
  (* both policies must find it: 0-ctx via self-parallelism, OPA via the
     loop-doubled origin pair *)
  check_bool "0-ctx finds" true (o2_races ~policy:Context.Insensitive p >= 1);
  check_bool "O2 finds" true (o2_races p >= 1)

let test_figure2_false_positive_only_under_0ctx () =
  let p = O2_workloads.Figures.figure2 () in
  check_int "O2 clean" 0 (o2_races p);
  check_bool "0-ctx has the false positive" true
    (o2_races ~policy:Context.Insensitive p > 0)

let test_figure3_false_positive_only_under_0ctx () =
  let p = O2_workloads.Figures.figure3 () in
  check_int "O2 clean" 0 (o2_races p);
  check_bool "0-ctx false positive" true
    (o2_races ~policy:Context.Insensitive p > 0)

(* wrapper-created threads: the k=1 wrapper extension makes the two
   threads distinct origins, so their mutual race is found *)
let test_wrapper_threads_race () =
  let p =
    prog ~main:"M"
      [
        cls "Data" ~fields:[ "v" ] [];
        cls "W" ~super:"Thread" ~fields:[ "s" ]
          [
            meth "init" [ "s" ] [ fwrite "this" "s" "s" ];
            meth "run" [] [ fread "d" "this" "s"; fwrite "d" "v" "d"; ret None ];
          ];
        cls "F"
          [
            meth ~static:true "spawn" [ "d" ]
              [ new_ "t" "W" [ "d" ]; start "t"; ret None ];
          ];
        cls "M"
          [
            meth ~static:true "main" []
              [
                new_ "d" "Data" [];
                scall "F" "spawn" [ "d" ];
                scall "F" "spawn" [ "d" ];
              ];
          ];
      ]
  in
  check_bool "wrapper race found" true (o2_races p >= 1)

(* regression: a child thread spawned from inside a thread pool must race
   with its siblings — the parent's multiplicity carries to the child.
   Under the origin policy the doubled parent copies get distinct child
   origins; under other policies self-parallelism propagates along spawn
   edges. *)
let test_nested_spawn_from_pool () =
  let p =
    prog ~main:"M"
      [
        cls "Data" ~fields:[ "v" ] [];
        cls "Kid" ~super:"Thread" ~fields:[ "s" ]
          [
            meth "init" [ "s" ] [ fwrite "this" "s" "s" ];
            meth "run" [] [ fread "d" "this" "s"; fwrite "d" "v" "d"; ret None ];
          ];
        cls "Pool" ~super:"Thread" ~fields:[ "s" ]
          [
            meth "init" [ "s" ] [ fwrite "this" "s" "s" ];
            meth "run" []
              [
                fread "d" "this" "s";
                new_ "k" "Kid" [ "d" ];
                start "k";
                ret None;
              ];
          ];
        cls "M"
          [
            meth ~static:true "main" []
              [
                new_ "d" "Data" [];
                while_ [ new_ "t" "Pool" [ "d" ]; start "t" ];
              ];
          ];
      ]
  in
  check_bool "O2 finds the sibling-kid race" true (o2_races p >= 1);
  check_bool "0-ctx finds it too (transitive self-par)" true
    (o2_races ~policy:Context.Insensitive p >= 1);
  (* dynamic confirmation *)
  check_bool "dynamically real" true
    (List.length (O2_runtime.Dynrace.check p) >= 1)

(* regression: two posts to one handler object are ONE origin (rule ❾
   attaches the origin at the allocation): OSA must not count the two
   deliveries as two sharing origins for the handler's own locals, and
   under the §4.2 dispatcher model no race is reported *)
let test_double_post_one_origin () =
  let p =
    prog ~main:"M"
      [
        cls "Data" ~fields:[ "v" ] [];
        cls "H" ~super:"Handler"
          [
            meth "handle" []
              [ new_ "mine" "Data" []; fwrite "mine" "v" "mine"; ret None ];
          ];
        cls "M"
          [
            meth ~static:true "main" []
              [ new_ "h" "H" []; post "h" []; post "h" [] ];
          ];
      ]
  in
  check_int "no race under the dispatcher model" 0 (o2_races p);
  let a = Solver.analyze ~policy:(Context.Korigin 1) p in
  let osa = O2_osa.Osa.run a in
  (* the handler's local Data has exactly one accessing origin *)
  let mine_shared =
    List.exists
      (fun (sh : O2_osa.Osa.sharing) ->
        match sh.sh_target with
        | Access.Tfield (oid, "v") ->
            (Pag.obj (a.Solver.pag) oid).Pag.ob_class = "Data"
        | _ -> false)
      (O2_osa.Osa.shared_locations osa)
  in
  check_bool "handler locals not origin-shared in OSA" false mine_shared

(* Table 10 models *)
let test_models_expected_counts () =
  List.iter
    (fun (m : O2_workloads.Models.model) ->
      let _, _, r = O2_race.Detect.analyze (m.program ()) in
      check_int (m.name ^ " count") m.expected_races (O2_race.Detect.n_races r))
    O2_workloads.Models.all

let test_models_fixed_clean () =
  List.iter
    (fun (m : O2_workloads.Models.model) ->
      let _, _, r = O2_race.Detect.analyze (m.fixed ()) in
      check_int (m.name ^ " fixed") 0 (O2_race.Detect.n_races r))
    O2_workloads.Models.all

(* report invariants *)
let test_report_dedup_and_order () =
  let _, _, r = O2_race.Detect.analyze (race1 ()) in
  let keys =
    List.map
      (fun (race : O2_race.Detect.race) ->
        (race.r_a.O2_shb.Graph.n_sid, race.r_b.O2_shb.Graph.n_sid))
      r.races
  in
  check_bool "no duplicate site pairs" true
    (List.length keys = List.length (List.sort_uniq compare keys));
  List.iter
    (fun (race : O2_race.Detect.race) ->
      check_bool "a before b" true
        (race.r_a.O2_shb.Graph.n_id <= race.r_b.O2_shb.Graph.n_id))
    r.races

let test_prune_counters () =
  let _, _, r = O2_race.Detect.analyze (race1 ()) in
  check_bool "pairs counted" true (r.n_pairs_checked > 0);
  check_bool "hb pruning happened (ctor writes)" true (r.n_hb_pruned > 0)

(* naive agrees with optimized everywhere, witness for witness, on the
   same graph with and without lock-region merging *)
let prop_naive_equals_optimized =
  QCheck2.Test.make ~name:"naive detector = optimized detector" ~count:60
    ~print:O2_test_helpers.Gen.print_spec O2_test_helpers.Gen.spec_gen
    (fun spec ->
      let p = O2_test_helpers.Gen.program_of_spec spec in
      List.for_all
        (fun policy ->
          let a = Solver.analyze ~policy p in
          List.for_all
            (fun lock_region ->
              let g = O2_shb.Graph.build ~lock_region a in
              (O2_race.Detect.run g).races = (O2_race.Naive.run g).races)
            [ true; false ])
        [ Context.Insensitive; Context.Korigin 1 ])

(* lock-region merging is sound: merging may collapse same-region repeats
   to a representative pair, so the merged report is a subset of the
   unmerged one at the site-pair level but must cover the same (target
   field, origin pair) race population *)
let prop_lock_region_sound =
  QCheck2.Test.make ~name:"lock-region merging preserves races" ~count:60
    ~print:O2_test_helpers.Gen.print_spec O2_test_helpers.Gen.spec_gen
    (fun spec ->
      let p = O2_test_helpers.Gen.program_of_spec spec in
      let a = Solver.analyze ~policy:(Context.Korigin 1) p in
      let field_of (x : O2_race.Detect.race) =
        match x.r_target with
        | Access.Tfield (_, f) -> f
        | Access.Tstatic (c, f) -> c ^ "::" ^ f
      in
      let pair_key (x : O2_race.Detect.race) =
        ( min x.r_a.O2_shb.Graph.n_sid x.r_b.O2_shb.Graph.n_sid,
          max x.r_a.O2_shb.Graph.n_sid x.r_b.O2_shb.Graph.n_sid,
          field_of x )
      in
      let races lock_region =
        let g = O2_shb.Graph.build ~lock_region a in
        (O2_race.Detect.run g).O2_race.Detect.races
      in
      let merged = races true and unmerged = races false in
      let upairs = List.sort_uniq compare (List.map pair_key unmerged) in
      let mfields = List.sort_uniq compare (List.map field_of merged) in
      let ufields = List.sort_uniq compare (List.map field_of unmerged) in
      (* merged pairs are a subset of the unmerged ones, and no racy field
         disappears entirely *)
      List.for_all (fun r -> List.mem (pair_key r) upairs) merged
      && mfields = ufields)

(* O2 ⊆ 0-ctx at the site-pair level: origins only remove false alarms *)
let prop_o2_subset_0ctx =
  QCheck2.Test.make ~name:"O2 races ⊆ 0-ctx races" ~count:60
    ~print:O2_test_helpers.Gen.print_spec O2_test_helpers.Gen.spec_gen
    (fun spec ->
      let p = O2_test_helpers.Gen.program_of_spec spec in
      let key (x : O2_race.Detect.race) =
        ( min x.r_a.O2_shb.Graph.n_sid x.r_b.O2_shb.Graph.n_sid,
          max x.r_a.O2_shb.Graph.n_sid x.r_b.O2_shb.Graph.n_sid )
      in
      let races policy =
        let _, _, r = O2_race.Detect.analyze ~policy p in
        List.sort_uniq compare (List.map key r.O2_race.Detect.races)
      in
      let o2 = races (Context.Korigin 1) in
      let z = races Context.Insensitive in
      List.for_all (fun k -> List.mem k z) o2)

(* class-based accounting: one check per class pair must cover exactly the
   node pairs the naive O(n²) loop counts, on arbitrary programs *)
let prop_class_accounting =
  QCheck2.Test.make
    ~name:"pairs+class_pruned = naive pairs on random programs" ~count:60
    ~print:O2_test_helpers.Gen.print_spec O2_test_helpers.Gen.spec_gen
    (fun spec ->
      let p = O2_test_helpers.Gen.program_of_spec spec in
      List.for_all
        (fun policy ->
          let a = Solver.analyze ~policy p in
          let g = O2_shb.Graph.build ~lock_region:false a in
          let fast = O2_race.Detect.run g in
          let slow = O2_race.Naive.run g in
          slow.O2_race.Detect.n_pairs_checked
          = fast.O2_race.Detect.n_pairs_checked
            + fast.O2_race.Detect.n_class_pruned)
        [ Context.Insensitive; Context.Korigin 1 ])

(* ---------------- differential reporting ---------------- *)

let test_diff_self_is_unchanged () =
  let p = race1 () in
  let d = O2_race.Diff.diff p p in
  check_int "no introduced" 0 (List.length d.O2_race.Diff.introduced);
  check_int "no fixed" 0 (List.length d.O2_race.Diff.fixed);
  check_bool "unchanged nonempty" true (d.O2_race.Diff.unchanged <> []);
  (* a rebuilt copy gets fresh synthetic line numbers: still aligned, as
     moved rather than introduced/fixed *)
  let d2 = O2_race.Diff.diff p (race1 ()) in
  check_int "rebuild introduces nothing" 0
    (List.length d2.O2_race.Diff.introduced);
  check_int "rebuild fixes nothing" 0 (List.length d2.O2_race.Diff.fixed)

let test_diff_model_fix () =
  let m = O2_workloads.Models.find "zookeeper" in
  let d = O2_race.Diff.diff (m.program ()) (m.fixed ()) in
  check_int "fix introduces nothing" 0 (List.length d.O2_race.Diff.introduced);
  check_bool "fix removes the race" true (List.length d.O2_race.Diff.fixed >= 1);
  (* and the reverse direction reports it as introduced *)
  let d' = O2_race.Diff.diff (m.fixed ()) (m.program ()) in
  check_bool "regression detected" true
    (List.length d'.O2_race.Diff.introduced >= 1)

let test_diff_moved_code () =
  (* the same race after inserting unrelated statements above it: aligned
     as moved, not introduced+fixed *)
  let mk pad =
    prog ~main:"M"
      [
        cls "Data" ~fields:[ "v" ] [];
        cls "W" ~super:"Thread" ~fields:[ "s" ]
          [
            meth "init" [ "s" ] [ fwrite "this" "s" "s" ];
            meth "run" []
              (List.init pad (fun i -> null (Printf.sprintf "pad%d" i))
              @ [ fread "d" "this" "s"; fwrite "d" "v" "d"; ret None ]);
          ];
        cls "M"
          [
            meth ~static:true "main" []
              [
                new_ "d" "Data" [];
                new_ "w1" "W" [ "d" ];
                new_ "w2" "W" [ "d" ];
                start "w1";
                start "w2";
              ];
          ];
      ]
  in
  let d = O2_race.Diff.diff (mk 0) (mk 5) in
  check_int "nothing introduced" 0 (List.length d.O2_race.Diff.introduced);
  check_int "nothing fixed" 0 (List.length d.O2_race.Diff.fixed);
  check_bool "aligned as moved or unchanged" true
    (List.length d.O2_race.Diff.moved + List.length d.O2_race.Diff.unchanged
    >= 1)

let () =
  Alcotest.run "race"
    [
      ( "scenarios",
        [
          Alcotest.test_case "basic race" `Quick test_basic_race;
          Alcotest.test_case "common lock" `Quick test_lock_prevents;
          Alcotest.test_case "different locks" `Quick
            test_different_locks_race;
          Alcotest.test_case "join orders" `Quick test_join_prevents;
          Alcotest.test_case "read-read" `Quick test_read_read_no_race;
          Alcotest.test_case "event vs thread" `Quick
            test_event_thread_race_but_not_event_event;
          Alcotest.test_case "self-parallel pool" `Quick
            test_self_parallel_race;
          Alcotest.test_case "figure2 FP only 0-ctx" `Quick
            test_figure2_false_positive_only_under_0ctx;
          Alcotest.test_case "figure3 FP only 0-ctx" `Quick
            test_figure3_false_positive_only_under_0ctx;
          Alcotest.test_case "wrapper threads" `Quick
            test_wrapper_threads_race;
          Alcotest.test_case "nested spawn from pool" `Quick
            test_nested_spawn_from_pool;
          Alcotest.test_case "double post one origin" `Quick
            test_double_post_one_origin;
        ] );
      ( "models (Table 10)",
        [
          Alcotest.test_case "expected counts" `Quick
            test_models_expected_counts;
          Alcotest.test_case "fixed variants clean" `Quick
            test_models_fixed_clean;
        ] );
      ( "diff",
        [
          Alcotest.test_case "self unchanged" `Quick test_diff_self_is_unchanged;
          Alcotest.test_case "model fix" `Quick test_diff_model_fix;
          Alcotest.test_case "moved code" `Quick test_diff_moved_code;
        ] );
      ( "report",
        [
          Alcotest.test_case "dedup+order" `Quick test_report_dedup_and_order;
          Alcotest.test_case "prune counters" `Quick test_prune_counters;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_class_accounting;
          QCheck_alcotest.to_alcotest prop_naive_equals_optimized;
          QCheck_alcotest.to_alcotest prop_lock_region_sound;
          QCheck_alcotest.to_alcotest prop_o2_subset_0ctx;
        ] );
    ]
