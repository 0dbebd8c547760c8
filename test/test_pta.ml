open O2_ir
open O2_ir.Builder
open O2_pta

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let analyze ?(policy = Context.Korigin 1) p = Solver.analyze ~policy p

(* points-to of a local in a reached method instance, searching all
   contexts the method was reached under *)
let pts_classes a mname v =
  let out = ref [] in
  List.iter
    (fun ((m : Program.meth), ctx) ->
      if m.Program.m_name = mname || m.Program.m_class ^ "." ^ m.Program.m_name = mname
      then
        O2_util.Bitset.iter
          (fun oid ->
            let o = Pag.obj (a.Solver.pag) oid in
            out := o.Pag.ob_class :: !out)
          (Solver.pts_var a m ctx v))
    (Solver.reached a);
  List.sort_uniq compare !out

let pts_count a mname v =
  let p = ref [] in
  List.iter
    (fun ((m : Program.meth), ctx) ->
      if m.Program.m_name = mname then
        O2_util.Bitset.iter
          (fun oid -> p := oid :: !p)
          (Solver.pts_var a m ctx v))
    (Solver.reached a);
  List.length (List.sort_uniq compare !p)

(* ---------------- Table 2 rules, one by one ---------------- *)

(* ❶/❷: allocation and copy *)
let test_rule_alloc_copy () =
  let p =
    prog ~main:"M"
      [
        cls "A" [];
        cls "B" [];
        cls "M"
          [
            meth ~static:true "main" []
              [ new_ "x" "A" []; assign "y" "x"; new_ "z" "B" [] ];
          ];
      ]
  in
  let a = analyze p in
  Alcotest.(check (list string)) "x:A" [ "A" ] (pts_classes a "main" "x");
  Alcotest.(check (list string)) "y=x" [ "A" ] (pts_classes a "main" "y");
  Alcotest.(check (list string)) "z:B" [ "B" ] (pts_classes a "main" "z")

(* ❸/❹: field store and load *)
let test_rule_field () =
  let p =
    prog ~main:"M"
      [
        cls "Box" ~fields:[ "f" ] [];
        cls "A" [];
        cls "M"
          [
            meth ~static:true "main" []
              [
                new_ "b" "Box" [];
                new_ "v" "A" [];
                fwrite "b" "f" "v";
                fread "r" "b" "f";
              ];
          ];
      ]
  in
  let a = analyze p in
  Alcotest.(check (list string)) "load sees store" [ "A" ]
    (pts_classes a "main" "r")

(* field-sensitivity: different fields do not leak *)
let test_rule_field_sensitive () =
  let p =
    prog ~main:"M"
      [
        cls "Box" ~fields:[ "f"; "g" ] [];
        cls "A" [];
        cls "B" [];
        cls "M"
          [
            meth ~static:true "main" []
              [
                new_ "b" "Box" [];
                new_ "va" "A" [];
                new_ "vb" "B" [];
                fwrite "b" "f" "va";
                fwrite "b" "g" "vb";
                fread "rf" "b" "f";
              ];
          ];
      ]
  in
  let a = analyze p in
  Alcotest.(check (list string)) "only f" [ "A" ] (pts_classes a "main" "rf")

(* ❺/❻: arrays via the * field *)
let test_rule_array () =
  let p =
    prog ~main:"M"
      [
        cls "Arr" [];
        cls "A" [];
        cls "B" [];
        cls "M"
          [
            meth ~static:true "main" []
              [
                new_ "arr" "Arr" [];
                new_ "va" "A" [];
                new_ "vb" "B" [];
                awrite "arr" "va";
                awrite "arr" "vb";
                aread "r" "arr";
              ];
          ];
      ]
  in
  let a = analyze p in
  Alcotest.(check (list string)) "both elems" [ "A"; "B" ]
    (pts_classes a "main" "r")

(* statics *)
let test_rule_static () =
  let p =
    prog ~main:"M"
      [
        cls "G" ~sfields:[ "s" ] [];
        cls "A" [];
        cls "M"
          [
            meth ~static:true "main" []
              [ new_ "v" "A" []; swrite "G" "s" "v"; sread "r" "G" "s" ];
          ];
      ]
  in
  let a = analyze p in
  Alcotest.(check (list string)) "via static" [ "A" ] (pts_classes a "main" "r")

(* ❼: virtual dispatch by receiver class; params and returns flow *)
let test_rule_call () =
  let p =
    prog ~main:"M"
      [
        cls "A" [];
        cls "Base" [ meth "id" [ "p" ] [ ret (Some "p") ] ];
        cls "Sub" ~super:"Base"
          [ meth "id" [ "p" ] [ new_ "q" "A" []; ret (Some "q") ] ];
        cls "M"
          [
            meth ~static:true "main" []
              [
                new_ "b" "Base" [];
                new_ "s" "Sub" [];
                new_ "v" "A" [];
                call ~ret:"r1" "b" "id" [ "v" ];
                call ~ret:"r2" "s" "id" [ "v" ];
              ];
          ];
      ]
  in
  let a = analyze p in
  Alcotest.(check (list string)) "base id" [ "A" ] (pts_classes a "main" "r1");
  Alcotest.(check (list string)) "sub returns fresh" [ "A" ]
    (pts_classes a "main" "r2");
  (* `this` flows into the callee *)
  check_bool "this bound" true (pts_classes a "id" "this" <> [])

(* static calls *)
let test_rule_static_call () =
  let p =
    prog ~main:"M"
      [
        cls "A" [];
        cls "F" [ meth ~static:true "mk" [] [ new_ "x" "A" []; ret (Some "x") ] ];
        cls "M"
          [ meth ~static:true "main" [] [ scall ~ret:"r" "F" "mk" [] ] ];
      ]
  in
  let a = analyze p in
  Alcotest.(check (list string)) "static ret" [ "A" ] (pts_classes a "main" "r")

(* ❽/❾: origin allocation + entry *)
let test_rule_origin_entry () =
  let p =
    prog ~main:"M"
      [
        cls "W" ~super:"Thread" ~fields:[ "d" ]
          [
            meth "init" [ "d" ] [ fwrite "this" "d" "d" ];
            meth "run" [] [ fread "x" "this" "d"; ret None ];
          ];
        cls "A" [];
        cls "M"
          [
            meth ~static:true "main" []
              [ new_ "a" "A" []; new_ "w" "W" [ "a" ]; start "w" ];
          ];
      ]
  in
  let a = analyze p in
  (* the entry body is reached and sees the constructor argument *)
  Alcotest.(check (list string)) "attr flows" [ "A" ] (pts_classes a "run" "x");
  let sps = a.Solver.spawns in
  check_int "spawns" 2 (Array.length sps);
  check_bool "thread spawn" true
    (Array.exists (fun (s : Solver.spawn) -> s.sp_kind = `Thread) sps);
  check_int "#O" 1 (Solver.n_origins a)

(* Figure 3: context switch at origin allocation removes false aliasing *)
let test_figure3_no_false_alias () =
  let p = O2_workloads.Figures.figure3 () in
  let a = analyze p in
  (* each thread's f is a distinct abstract object *)
  check_int "two objects for f" 2 (pts_count a "run" "f");
  let a0 = analyze ~policy:Context.Insensitive p in
  check_int "0-ctx collapses them" 1 (pts_count a0 "run" "f")

(* Figure 2: origin attributes select the right util implementation *)
let test_figure2_dispatch () =
  let p = O2_workloads.Figures.figure2 () in
  let a = analyze p in
  check_int "two y objects under OPA" 2 (pts_count a "subN" "y");
  let a0 = analyze ~policy:Context.Insensitive p in
  check_int "one y object under 0-ctx" 1 (pts_count a0 "subN" "y")

(* k-CFA distinguishes by call site, up to depth k *)
let test_kcfa_depth () =
  let deep =
    prog ~main:"M"
      [
        cls "A" [];
        cls "H"
          [
            meth "l1" [] [ call ~ret:"r" "this" "l2" []; ret (Some "r") ];
            meth "l2" [] [ new_ "x" "A" []; ret (Some "x") ];
          ];
        cls "M"
          [
            meth ~static:true "main" []
              [
                new_ "h" "H" [];
                call ~ret:"a" "h" "l1" [];
                call ~ret:"b" "h" "l1" [];
              ];
          ];
      ]
  in
  (* the alloc is 2 calls deep: 1-CFA merges the two paths, 2-CFA splits *)
  let a1 = analyze ~policy:(Context.Kcfa 1) deep in
  check_int "1-CFA merges" 1 (pts_count a1 "l2" "x");
  let a2 = analyze ~policy:(Context.Kcfa 2) deep in
  check_int "2-CFA splits the alloc" 2 (pts_count a2 "l2" "x")

(* k-obj: receiver objects are the context *)
let test_kobj () =
  let p =
    prog ~main:"M"
      [
        cls "A" [];
        cls "H" [ meth "mk" [] [ new_ "x" "A" []; ret (Some "x") ] ];
        cls "M"
          [
            meth ~static:true "main" []
              [
                new_ "h1" "H" [];
                new_ "h2" "H" [];
                call ~ret:"a" "h1" "mk" [];
                call ~ret:"b" "h2" "mk" [];
              ];
          ];
      ]
  in
  let a1 = analyze ~policy:(Context.Kobj 1) p in
  check_int "1-obj splits by receiver" 2 (pts_count a1 "mk" "x");
  let a0 = analyze ~policy:Context.Insensitive p in
  check_int "0-ctx merges" 1 (pts_count a0 "mk" "x")

(* OPA rule ❼: a method called on a shared object still runs in the
   caller's origin (no context explosion inside an origin) *)
let test_origin_call_keeps_context () =
  let p =
    prog ~main:"M"
      [
        cls "A" [];
        cls "Svc" [ meth "mk" [] [ new_ "x" "A" []; ret (Some "x") ] ];
        cls "W" ~super:"Thread" ~fields:[ "svc" ]
          [
            meth "init" [ "s" ] [ fwrite "this" "svc" "s" ];
            meth "run" []
              [ fread "s" "this" "svc"; call ~ret:"r" "s" "mk" []; ret None ];
          ];
        cls "M"
          [
            meth ~static:true "main" []
              [
                new_ "s" "Svc" [];
                new_ "w1" "W" [ "s" ];
                new_ "w2" "W" [ "s" ];
                start "w1";
                start "w2";
              ];
          ];
      ]
  in
  let a = analyze p in
  (* svc is shared, but mk is analyzed once per origin: two A objects *)
  check_int "per-origin allocation in shared callee" 2 (pts_count a "mk" "x")

(* loop doubling: an origin allocated in a loop becomes two origins *)
let test_loop_doubling () =
  let p =
    prog ~main:"M"
      [
        cls "W" ~super:"Thread" [ meth "run" [] [ ret None ] ];
        cls "M"
          [
            meth ~static:true "main" []
              [ while_ [ new_ "w" "W" []; start "w" ] ];
          ];
      ]
  in
  let a = analyze p in
  check_int "#O doubled" 2 (Solver.n_origins a);
  check_int "two spawned origins" 3 (Array.length (a.Solver.spawns));
  (* outside a loop: one *)
  let p1 =
    prog ~main:"M"
      [
        cls "W" ~super:"Thread" [ meth "run" [] [ ret None ] ];
        cls "M"
          [ meth ~static:true "main" [] [ new_ "w" "W" []; start "w" ] ];
      ]
  in
  check_int "#O single" 1 (Solver.n_origins (analyze p1))

(* wrapper k=1 extension: one wrapper called from two sites = two origins *)
let test_wrapper_extension () =
  let p =
    prog ~main:"M"
      [
        cls "W" ~super:"Thread" [ meth "run" [] [ ret None ] ];
        cls "F"
          [
            meth ~static:true "spawn" []
              [ new_ "t" "W" []; start "t"; ret None ];
          ];
        cls "M"
          [
            meth ~static:true "main" []
              [ scall "F" "spawn" []; scall "F" "spawn" [] ];
          ];
      ]
  in
  let a = analyze p in
  check_int "two origins through the wrapper" 2 (Solver.n_origins a)

(* origin identity: each allocation instance gets a unique origin ("a new
   and unique origin Oj is created for this new allocation") — two parent
   origins allocating the same inner thread class get distinct inner
   origins even at k=1 *)
let test_origin_identity_per_parent () =
  let p =
    prog ~main:"M"
      [
        cls "A" [];
        cls "Inner" ~super:"Thread"
          [ meth "run" [] [ new_ "x" "A" []; ret None ] ];
        cls "Outer" ~super:"Thread"
          [
            meth "run" [] [ new_ "i" "Inner" []; start "i"; ret None ];
          ];
        cls "M"
          [
            meth ~static:true "main" []
              [
                new_ "o1" "Outer" [];
                new_ "o2" "Outer" [];
                start "o1";
                start "o2";
              ];
          ];
      ]
  in
  let a1 = analyze ~policy:(Context.Korigin 1) p in
  (* 2 outers + one inner per outer = 4 origins *)
  check_int "origins unique per parent" 4 (Solver.n_origins a1);
  check_int "inner x per inner origin" 2 (pts_count a1 "run" "x")

(* k-origin: recursive spawn chains are collapsed at the repeated site for
   identity, but longer context chains still separate the first levels'
   data (the Redis nested-creation pattern of §3.2) *)
let test_k_origin_recursion () =
  let p =
    prog ~main:"M"
      [
        cls "A" [];
        cls "R" ~super:"Thread"
          [
            meth "run" []
              [
                new_ "x" "A" [];
                if_ [ new_ "r" "R" []; start "r" ] [];
                ret None;
              ];
          ];
        cls "M"
          [
            meth ~static:true "main" []
              [ new_ "r0" "R" []; start "r0" ];
          ];
      ]
  in
  (* both terminate despite unbounded runtime recursion *)
  let a1 = analyze ~policy:(Context.Korigin 1) p in
  let a2 = analyze ~policy:(Context.Korigin 2) p in
  check_bool "finite origins at k=1" true (Solver.n_origins a1 <= 4);
  check_bool "finite origins at k=2" true (Solver.n_origins a2 <= 6);
  (* deeper chains give the deeper levels their own data *)
  check_bool "k=2 refines recursion levels" true
    (pts_count a2 "run" "x" >= pts_count a1 "run" "x")

(* events: post triggers the handler entry with arguments *)
let test_post_event () =
  let p =
    prog ~main:"M"
      [
        cls "A" [];
        cls "H" ~super:"Handler"
          [ meth "handle" [ "msg" ] [ assign "m" "msg"; ret None ] ];
        cls "M"
          [
            meth ~static:true "main" []
              [ new_ "h" "H" []; new_ "msg" "A" []; post "h" [ "msg" ] ];
          ];
      ]
  in
  let a = analyze p in
  Alcotest.(check (list string)) "event arg flows" [ "A" ]
    (pts_classes a "handle" "m");
  check_bool "event spawn" true
    (Array.exists
       (fun (s : Solver.spawn) -> s.sp_kind = `Event)
       (a.Solver.spawns))

(* start on a non-thread object is ignored, no crash *)
let test_start_non_thread () =
  let p =
    prog ~main:"M"
      [
        cls "A" [];
        cls "M"
          [ meth ~static:true "main" [] [ new_ "a" "A" []; start "a" ] ];
      ]
  in
  let a = analyze p in
  check_int "only main spawn" 1 (Array.length (a.Solver.spawns))

(* recursion terminates under every policy *)
let test_recursion_terminates () =
  let p =
    prog ~main:"M"
      [
        cls "A" [];
        cls "R"
          [
            meth "rec_" [ "n" ]
              [ new_ "x" "A" []; call ~ret:"r" "this" "rec_" [ "x" ]; ret (Some "r") ];
          ];
        cls "M"
          [
            meth ~static:true "main" []
              [ new_ "r" "R" []; new_ "a" "A" []; call "r" "rec_" [ "a" ] ];
          ];
      ]
  in
  List.iter
    (fun policy -> ignore (analyze ~policy p))
    [ Context.Insensitive; Context.Kcfa 2; Context.Kobj 2; Context.Korigin 2 ]

(* joins are recorded with resolvable targets *)
let test_joins_recorded () =
  let p =
    prog ~main:"M"
      [
        cls "W" ~super:"Thread" [ meth "run" [] [ ret None ] ];
        cls "M"
          [
            meth ~static:true "main" []
              [ new_ "w" "W" []; start "w"; join "w" ];
          ];
      ]
  in
  let a = analyze p in
  check_int "one join" 1 (List.length (a.Solver.joins))

(* precision refinement: OPA points-to ⊆ 0-ctx points-to, per class set *)
let prop_opa_refines_0ctx =
  QCheck2.Test.make ~name:"OPA never sees classes 0-ctx doesn't" ~count:60
    ~print:O2_test_helpers.Gen.print_spec O2_test_helpers.Gen.spec_gen
    (fun spec ->
      let p = O2_test_helpers.Gen.program_of_spec spec in
      let a_opa = analyze ~policy:(Context.Korigin 1) p in
      let a_0 = analyze ~policy:Context.Insensitive p in
      (* compare the set of (method, var, class) triples *)
      let facts a =
        List.concat_map
          (fun ((m : Program.meth), ctx) ->
            List.concat_map
              (fun v ->
                O2_util.Bitset.fold
                  (fun oid acc ->
                    let o = Pag.obj (a.Solver.pag) oid in
                    (m.Program.m_class, m.Program.m_name, v, o.Pag.ob_class)
                    :: acc)
                  (Solver.pts_var a m ctx v)
                  [])
              (("this" :: m.Program.m_params) @ m.Program.m_locals))
          (Solver.reached a)
        |> List.sort_uniq compare
      in
      let fo = facts a_opa and f0 = facts a_0 in
      List.for_all (fun f -> List.mem f f0) fo)

(* determinism *)
let prop_deterministic =
  QCheck2.Test.make ~name:"solver deterministic" ~count:40
    ~print:O2_test_helpers.Gen.print_spec O2_test_helpers.Gen.spec_gen
    (fun spec ->
      let p = O2_test_helpers.Gen.program_of_spec spec in
      let run () =
        let a = analyze p in
        ( Pag.n_nodes (a.Solver.pag),
          Pag.n_objs (a.Solver.pag),
          Pag.n_edges (a.Solver.pag),
          Array.length (a.Solver.spawns),
          Solver.n_origins a )
      in
      run () = run ())

(* the budget sees the exact pop count: a solve that needs N pops
   completes under a ceiling of N, with the unbudgeted facts, and is
   exhausted under N - 1 *)
let test_budget_boundary () =
  let p = O2_workloads.Synth.program (O2_workloads.Synth.find "zookeeper") in
  let free = Solver.analyze p in
  let n = O2_util.Metrics.get free.Solver.stats "pta.worklist_iters" in
  check_bool "solve pops something" true (n > 1);
  let at_n =
    Solver.analyze ~budget:(O2_util.Budget.make ~max_steps:n ()) p
  in
  Alcotest.(check string)
    "ceiling N: same facts" (Solver.fingerprint free)
    (Solver.fingerprint at_n);
  check_int "ceiling N: same pop count" n
    (O2_util.Metrics.get at_n.Solver.stats "pta.worklist_iters");
  Alcotest.check_raises "ceiling N-1: exhausted"
    (O2_util.Budget.Exhausted `Steps) (fun () ->
      ignore
        (Solver.analyze
           ~budget:(O2_util.Budget.make ~max_steps:(n - 1) ())
           p))

(* Nodes are not hash-consed: the solver names each one once (instance
   slots, the field and static memos). Nothing in the graph would catch a
   second id for one node value, so check it: no value under two ids, and
   [pta.pointers] counts distinct values. *)
let test_node_uniqueness () =
  let specs =
    O2_workloads.Synth.(dacapo @ android @ distributed @ capps @ stress)
  in
  List.iter
    (fun (spec : O2_workloads.Synth.spec) ->
      let p = O2_workloads.Synth.program spec in
      List.iter
        (fun policy ->
          let a = analyze ~policy p in
          let label =
            Printf.sprintf "%s/%s" spec.s_name (Context.policy_name policy)
          in
          let seen = Hashtbl.create 4096 in
          Pag.iter_nodes
            (fun id n _ ->
              (match Hashtbl.find_opt seen n with
              | Some first ->
                  Alcotest.failf "%s: nodes %d and %d carry one value" label
                    first id
              | None -> ());
              Hashtbl.add seen n id)
            a.Solver.pag;
          check_int (label ^ " pointers = distinct nodes") (Hashtbl.length seen)
            (O2_util.Metrics.get a.Solver.stats "pta.pointers"))
        Context.[ Insensitive; Kcfa 2; Kobj 2; Korigin 1 ])
    specs

let () =
  Alcotest.run "pta"
    [
      ( "table2-rules",
        [
          Alcotest.test_case "alloc+copy (1,2)" `Quick test_rule_alloc_copy;
          Alcotest.test_case "field store/load (3,4)" `Quick test_rule_field;
          Alcotest.test_case "field sensitivity" `Quick
            test_rule_field_sensitive;
          Alcotest.test_case "arrays (5,6)" `Quick test_rule_array;
          Alcotest.test_case "statics" `Quick test_rule_static;
          Alcotest.test_case "virtual call (7)" `Quick test_rule_call;
          Alcotest.test_case "static call" `Quick test_rule_static_call;
          Alcotest.test_case "origin alloc+entry (8,9)" `Quick
            test_rule_origin_entry;
        ] );
      ( "origins",
        [
          Alcotest.test_case "figure3 no false alias" `Quick
            test_figure3_no_false_alias;
          Alcotest.test_case "figure2 per-origin data" `Quick
            test_figure2_dispatch;
          Alcotest.test_case "call keeps origin (rule 7)" `Quick
            test_origin_call_keeps_context;
          Alcotest.test_case "loop doubling" `Quick test_loop_doubling;
          Alcotest.test_case "wrapper k=1" `Quick test_wrapper_extension;
          Alcotest.test_case "origin identity per parent" `Quick
            test_origin_identity_per_parent;
          Alcotest.test_case "k-origin recursion" `Quick
            test_k_origin_recursion;
          Alcotest.test_case "post event" `Quick test_post_event;
          Alcotest.test_case "start non-thread" `Quick test_start_non_thread;
        ] );
      ( "policies",
        [
          Alcotest.test_case "k-CFA depth" `Quick test_kcfa_depth;
          Alcotest.test_case "k-obj receivers" `Quick test_kobj;
          Alcotest.test_case "recursion terminates" `Quick
            test_recursion_terminates;
          Alcotest.test_case "joins recorded" `Quick test_joins_recorded;
          Alcotest.test_case "budget step boundary" `Quick
            test_budget_boundary;
          Alcotest.test_case "node uniqueness" `Quick test_node_uniqueness;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_opa_refines_0ctx;
          QCheck_alcotest.to_alcotest prop_deterministic;
        ] );
    ]
