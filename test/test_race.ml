open O2_ir.Builder
open O2_pta

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let o2_races ?(policy = Context.Korigin 1) ?(serial_events = true) p =
  let cfg = { O2.Config.default with policy; serial_events } in
  let r = (O2.run cfg p).O2.report in
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
      let r = (O2.run O2.Config.default (m.program ())).O2.report in
      check_int (m.name ^ " count") m.expected_races (O2_race.Detect.n_races r))
    O2_workloads.Models.all

let test_models_fixed_clean () =
  List.iter
    (fun (m : O2_workloads.Models.model) ->
      let r = (O2.run O2.Config.default (m.fixed ())).O2.report in
      check_int (m.name ^ " fixed") 0 (O2_race.Detect.n_races r))
    O2_workloads.Models.all

(* report invariants *)
let test_report_dedup_and_order () =
  let r = (O2.run O2.Config.default (race1 ())).O2.report in
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

(* the source-site dedup key: unordered statement pair + field name *)
let field_of (x : O2_race.Detect.race) =
  match x.r_target with
  | Access.Tfield (_, f) -> f
  | Access.Tstatic (c, f) -> c ^ "::" ^ f

let dedup_key (x : O2_race.Detect.race) =
  let a = x.r_a.O2_shb.Graph.n_sid and b = x.r_b.O2_shb.Graph.n_sid in
  ((min a b, max a b), field_of x)

(* the count before [n_races] read the deduplicated list's length *)
let old_n_races (r : O2_race.Detect.report) =
  List.map dedup_key r.races |> List.sort_uniq compare |> List.length

let named_specs =
  O2_workloads.Synth.(dacapo @ android @ distributed @ capps @ stress)

(* Every named workload under four policies: the witnesses come strictly
   ordered by node ids with pairwise distinct dedup keys, so [n_races] is
   the list's length. Detection keys its dedup on a dense field id (an
   instance field's interned id, or n_fields + a static's slot), which
   names the same field exactly when [field_of] does only if no instance
   field name and no ["C::f"] static string coincide: checked on every
   lowered program here. *)
let test_report_invariants_named () =
  let ids (x : O2_race.Detect.race) =
    (x.r_a.O2_shb.Graph.n_id, x.r_b.O2_shb.Graph.n_id)
  in
  let rec increasing = function
    | a :: (b :: _ as tl) -> ids a < ids b && increasing tl
    | _ -> true
  in
  List.iter
    (fun (spec : O2_workloads.Synth.spec) ->
      let p = O2_workloads.Synth.program spec in
      List.iter
        (fun policy ->
          let label =
            Printf.sprintf "%s/%s" spec.s_name (Context.policy_name policy)
          in
          let { O2.report = r; solver = a; _ } =
            O2.run { O2.Config.default with policy } p
          in
          check_bool (label ^ ": ordered by node ids") true
            (increasing r.races);
          let keys = List.map dedup_key r.races in
          check_int (label ^ ": distinct dedup keys") (List.length keys)
            (List.length (List.sort_uniq compare keys));
          check_int (label ^ ": n_races") (old_n_races r)
            (O2_race.Detect.n_races r);
          let fl = a.Solver.flat in
          let module F = O2_ir.Flat in
          let names =
            List.init (F.n_fields fl) (F.field_name fl)
            @ List.init (F.n_statics fl) (fun s ->
                  F.class_name fl (F.static_cid fl s)
                  ^ "::"
                  ^ F.field_name fl (F.static_fid fl s))
          in
          check_int (label ^ ": field keys name distinct fields")
            (List.length names)
            (List.length (List.sort_uniq compare names)))
        Context.[ Insensitive; Kcfa 2; Kobj 2; Korigin 1 ])
    named_specs

(* Three workers write field v of two Data objects from one statement (the
   worker's slot holds both), and read it from another: two target groups
   with one field name, so each (site pair, field) key has candidate
   witnesses in both groups. Deduplication runs across groups and keeps
   the least witness by node ids, as the naive detector's
   sort-then-filter does. *)
let two_group_writers () =
  prog ~main:"M"
    [
      cls "Data" ~fields:[ "v" ] [];
      cls "W" ~super:"Thread" ~fields:[ "s" ]
        [
          meth "init" [ "a"; "b" ]
            [ fwrite "this" "s" "a"; fwrite "this" "s" "b" ];
          meth "run" []
            [
              fread "d" "this" "s";
              fwrite "d" "v" "d";
              fread "x" "d" "v";
              ret None;
            ];
        ];
      cls "M"
        [
          meth ~static:true "main" []
            [
              new_ "d1" "Data" [];
              new_ "d2" "Data" [];
              new_ "w1" "W" [ "d1"; "d2" ];
              new_ "w2" "W" [ "d1"; "d2" ];
              new_ "w3" "W" [ "d1"; "d2" ];
              start "w1";
              start "w2";
              start "w3";
            ];
        ];
    ]

let test_dedup_across_groups () =
  let p = two_group_writers () in
  List.iter
    (fun policy ->
      let a = Solver.analyze ~policy p in
      let g = O2_shb.Graph.build a in
      (* the write statement reaches two locations of field v *)
      let written =
        Array.to_list (O2_shb.Graph.accesses g)
        |> List.filter_map (fun (n : O2_shb.Graph.node) ->
               match n.O2_shb.Graph.n_kind with
               | O2_shb.Graph.Write t -> Some t
               | _ -> None)
        |> List.filter (fun t ->
               match O2_shb.Graph.target_of g t with
               | Access.Tfield (_, "v") -> true
               | _ -> false)
        |> List.sort_uniq compare
      in
      check_int "two written groups of field v" 2 (List.length written);
      let fast = O2_race.Detect.run g and slow = O2_race.Naive.run g in
      check_bool "races found" true (fast.O2_race.Detect.races <> []);
      check_bool "witness for witness" true
        (fast.O2_race.Detect.races = slow.O2_race.Detect.races))
    [ Context.Insensitive; Context.Korigin 1 ]

let test_prune_counters () =
  let r = (O2.run O2.Config.default (race1 ())).O2.report in
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
        let r = (O2.run { O2.Config.default with policy } p).O2.report in
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

(* Two threads alike in occupied intervals and in their relations to third
   origins, HB-related both ways but not alike: A's first write waits for
   B's first, and B's second waits for A's signal after A's first. Origin
   blocks must not merge them — the block's one relation matrix would
   stand for both directions — or a spurious first-write race appears (in
   one spawn order or the other). The second writes do race. *)
let one_way_pair ~a_first =
  (* each thread: wait w1; write; signal s; wait w2; write *)
  let starts = [ start "a"; start "b" ] in
  prog ~main:"M"
    [
      cls "Data" ~fields:[ "v" ] [];
      cls "W" ~super:"Thread" ~fields:[ "d"; "w1"; "s"; "w2" ]
        [
          meth "init" [ "d"; "w1"; "s"; "w2" ]
            [
              fwrite "this" "d" "d";
              fwrite "this" "w1" "w1";
              fwrite "this" "s" "s";
              fwrite "this" "w2" "w2";
            ];
          meth "run" []
            [
              fread "d" "this" "d";
              fread "w1" "this" "w1";
              fread "s" "this" "s";
              fread "w2" "this" "w2";
              wait "w1";
              fwrite "d" "v" "d";
              signal "s";
              wait "w2";
              fwrite "d" "v" "d";
              ret None;
            ];
        ];
      cls "M"
        [
          meth ~static:true "main" []
            ([
               new_ "d" "Data" [];
               new_ "x1" "Data" [];
               new_ "x2" "Data" [];
               new_ "x3" "Data" [];
               new_ "x4" "Data" [];
               new_ "a" "W" [ "d"; "x1"; "x2"; "x3" ];
               new_ "b" "W" [ "d"; "x4"; "x1"; "x2" ];
             ]
            @ (if a_first then starts else List.rev starts)
            @ [ signal "x3"; signal "x4" ]);
        ];
    ]

let test_asymmetric_hb_pair () =
  check_int "A spawned first" 1 (o2_races (one_way_pair ~a_first:true));
  check_int "B spawned first" 1 (o2_races (one_way_pair ~a_first:false))

(* Like origins A and B (one class, same intervals, unrelated to each
   other), each HB-related to its own third thread: X and Y happen before
   A and B respectively ([~forward:false], the two columns differ), or A
   and B happen before X and Y ([~forward:true], the two rows differ).
   The differing relation has the same shape on both sides, so only the
   position-by-position comparison keyed by the third origin keeps A and
   B apart; merged, one of the A–Y and B–X races is lost. Four races:
   A–B, X–Y, A–Y, B–X. *)
let third_party ~forward =
  let wait_write = [ wait "s"; fwrite "d" "v" "d" ]
  and write_signal = [ fwrite "d" "v" "d"; signal "s" ] in
  let thread name body =
    cls name ~super:"Thread" ~fields:[ "d"; "s" ]
      [
        meth "init" [ "d"; "s" ]
          [ fwrite "this" "d" "d"; fwrite "this" "s" "s" ];
        meth "run" []
          ([ fread "d" "this" "d"; fread "s" "this" "s" ] @ body @ [ ret None ]);
      ]
  in
  let pair_body, third_body =
    if forward then (write_signal, wait_write) else (wait_write, write_signal)
  in
  prog ~main:"M"
    [
      cls "Data" ~fields:[ "v" ] [];
      thread "P" pair_body;
      thread "X" third_body;
      thread "Y" third_body;
      cls "M"
        [
          meth ~static:true "main" []
            [
              new_ "d" "Data" [];
              new_ "s1" "Data" [];
              new_ "s2" "Data" [];
              new_ "a" "P" [ "d"; "s1" ];
              new_ "b" "P" [ "d"; "s2" ];
              new_ "x" "X" [ "d"; "s1" ];
              new_ "y" "Y" [ "d"; "s2" ];
              start "a";
              start "b";
              start "x";
              start "y";
            ];
        ];
    ]

let test_third_party_relations () =
  check_int "columns differ" 4 (o2_races (third_party ~forward:false));
  check_int "rows differ" 4 (o2_races (third_party ~forward:true))

(* ---------------- large generated shapes ---------------- *)

let witness_digest (r : O2_race.Detect.report) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (x : O2_race.Detect.race) ->
      Printf.bprintf b "%d,%d,%d,%d,%s;" x.r_a.O2_shb.Graph.n_id
        x.r_b.O2_shb.Graph.n_id x.r_a.O2_shb.Graph.n_sid
        x.r_b.O2_shb.Graph.n_sid (field_of x))
    r.O2_race.Detect.races;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Three [o2 fuzz] shapes with thousands of origins in a handful of target
   groups (seed 7 #824: 2919 origins under 1-origin; seed 42 #44: 2673
   under 0-ctx; seed 7 #763: 4417 under 1-origin, whose near-tree of spawn
   edges reaches 9.7 M closure entries). Building an m×m origin relation
   table per group cost tens of millions of closure queries on them;
   detection must stay within a constant number of queries per class pair
   and origin. The pinned counts agree with
   {!O2_fuzz.Ref_stages.detect}; the closure size counts the reachable
   (origin, interval, origin) entries of the HB closure. [digest] pins
   the witness list (node-id pairs, sids, field) as the detector before
   run-level buffers and emission-time dedup reported it: these programs
   are above the naive detector's size cut-off, so nothing else checks
   witness choice at this scale. [alloc_mw] bounds the words
   one [Detect.run] allocates on a fresh graph (minor + major − promoted;
   the counters advance only at a minor collection, hence [Gc.minor]
   before each sample) — 35 Mw on #763 with per-group tables and a final
   sort of every raw witness. *)
let test_fuzz_shape ~seed ~index ~policy ~pairs ~races ~closure ~digest
    ?alloc_mw () =
  let p =
    O2_workloads.Synth.program
      (O2_workloads.Synth.spec_of_seed ~seed ~index)
  in
  let { O2.graph = g; report = r; solver = a; _ } =
    O2.run { O2.Config.default with policy } p
  in
  check_int "pairs checked" pairs r.O2_race.Detect.n_pairs_checked;
  check_int "races" races (O2_race.Detect.n_races r);
  check_int "closure entries" closure (O2_shb.Graph.hb_closure_entries g);
  Alcotest.(check string) "witness digest" digest (witness_digest r);
  let q = O2_shb.Graph.hb_queries g
  and bound =
    10 * (r.O2_race.Detect.n_pairs_checked + O2_shb.Graph.n_origins g)
  in
  check_bool (Printf.sprintf "hb queries %d <= %d" q bound) true (q <= bound);
  Option.iter
    (fun ceiling ->
      let g = O2_shb.Graph.build a in
      Gc.minor ();
      let s0 = Gc.quick_stat () in
      ignore (O2_race.Detect.run g);
      Gc.minor ();
      let s1 = Gc.quick_stat () in
      let mw =
        (s1.minor_words -. s0.minor_words +. s1.major_words
       -. s0.major_words
        -. (s1.promoted_words -. s0.promoted_words))
        /. 1e6
      in
      check_bool
        (Printf.sprintf "Detect.run allocates %.2f Mw <= %.1f" mw ceiling)
        true (mw <= ceiling))
    alloc_mw

(* ---------------- differential reporting ---------------- *)

(* align the race keys of two versions' O2.run results *)
let diff old_p new_p =
  let keys p =
    let r = O2.run O2.Config.default p in
    O2_race.Diff.keys r.O2.solver r.O2.report
  in
  O2_race.Diff.align (keys old_p) (keys new_p)

let test_diff_self_is_unchanged () =
  let p = race1 () in
  let d = diff p p in
  check_int "no introduced" 0 (List.length d.O2_race.Diff.introduced);
  check_int "no fixed" 0 (List.length d.O2_race.Diff.fixed);
  check_bool "unchanged nonempty" true (d.O2_race.Diff.unchanged <> []);
  (* a rebuilt copy gets fresh synthetic line numbers: still aligned, as
     moved rather than introduced/fixed *)
  let d2 = diff p (race1 ()) in
  check_int "rebuild introduces nothing" 0
    (List.length d2.O2_race.Diff.introduced);
  check_int "rebuild fixes nothing" 0 (List.length d2.O2_race.Diff.fixed)

let test_diff_model_fix () =
  let m = O2_workloads.Models.find "zookeeper" in
  let d = diff (m.program ()) (m.fixed ()) in
  check_int "fix introduces nothing" 0 (List.length d.O2_race.Diff.introduced);
  check_bool "fix removes the race" true (List.length d.O2_race.Diff.fixed >= 1);
  (* and the reverse direction reports it as introduced *)
  let d' = diff (m.fixed ()) (m.program ()) in
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
  let d = diff (mk 0) (mk 5) in
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
          Alcotest.test_case "asymmetric HB, like origins" `Quick
            test_asymmetric_hb_pair;
          Alcotest.test_case "third-origin relations, like origins" `Quick
            test_third_party_relations;
        ] );
      ( "models (Table 10)",
        [
          Alcotest.test_case "expected counts" `Quick
            test_models_expected_counts;
          Alcotest.test_case "fixed variants clean" `Quick
            test_models_fixed_clean;
        ] );
      ( "large shapes",
        [
          Alcotest.test_case "fuzz seed 7 #824, 1-origin" `Quick
            (test_fuzz_shape ~seed:7 ~index:824 ~policy:(Context.Korigin 1)
               ~pairs:1458 ~races:5136 ~closure:4_261_739
               ~digest:"6a7232787d2c470209fb992936e4a591");
          Alcotest.test_case "fuzz seed 42 #44, 0-ctx" `Quick
            (test_fuzz_shape ~seed:42 ~index:44 ~policy:Context.Insensitive
               ~pairs:1307 ~races:1789 ~closure:3_571_205
               ~digest:"a2954d3207b338a45036d1d6424d78e9");
          Alcotest.test_case "fuzz seed 7 #763, 1-origin" `Quick
            (test_fuzz_shape ~seed:7 ~index:763 ~policy:(Context.Korigin 1)
               ~pairs:1568 ~races:1440 ~closure:9_748_330
               ~digest:"9c5889ba80274b7e1ba820617abf1cf0" ~alloc_mw:2.5);
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
          Alcotest.test_case "named specs x policies: order, keys, count"
            `Quick test_report_invariants_named;
          Alcotest.test_case "dedup across target groups" `Quick
            test_dedup_across_groups;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_class_accounting;
          QCheck_alcotest.to_alcotest prop_naive_equals_optimized;
          QCheck_alcotest.to_alcotest prop_lock_region_sound;
          QCheck_alcotest.to_alcotest prop_o2_subset_0ctx;
        ] );
    ]
