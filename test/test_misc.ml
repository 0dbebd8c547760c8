(* Cross-cutting coverage for corners the focused suites do not hit:
   every Table 1 builtin root, the origin-attributes API (the Figure 2
   view), cross-origin static and array flows, runtime semantics of posts
   with arguments and static calls, three-lock deadlock cycles, and the
   JSON serializer. *)

open O2_ir.Builder
open O2_pta

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ---------------- Table 1 builtin roots ---------------- *)

let entry_prog root entry =
  prog ~main:"M"
    [
      cls "Data" ~fields:[ "v" ] [];
      cls "X" ~super:root ~fields:[ "s" ]
        [
          meth "init" [ "s" ] [ fwrite "this" "s" "s" ];
          meth entry [] [ fread "d" "this" "s"; fwrite "d" "v" "d"; ret None ];
        ];
      cls "M"
        [
          meth ~static:true "main" []
            [
              new_ "d" "Data" [];
              new_ "x1" "X" [ "d" ];
              new_ "x2" "X" [ "d" ];
              start "x1";
              start "x2";
            ];
        ];
    ]

let test_thread_roots () =
  List.iter
    (fun (root, entry) ->
      let p = entry_prog root entry in
      let r = (O2.run O2.Config.default p).O2.report in
      check_int (root ^ " races") 1 (O2_race.Detect.n_races r))
    [ ("Thread", "run"); ("Runnable", "run"); ("Callable", "call") ]

let handler_prog root entry =
  prog ~main:"M"
    [
      cls "Data" ~fields:[ "v" ] [];
      cls "X" ~super:root ~fields:[ "s" ]
        [
          meth "init" [ "s" ] [ fwrite "this" "s" "s" ];
          meth entry [] [ fread "d" "this" "s"; fwrite "d" "v" "d"; ret None ];
        ];
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
              new_ "x" "X" [ "d" ];
              new_ "w" "W" [ "d" ];
              post "x" [];
              start "w";
            ];
        ];
    ]

let test_handler_roots () =
  List.iter
    (fun (root, entry) ->
      let p = handler_prog root entry in
      let r = (O2.run O2.Config.default p).O2.report in
      (* handler vs thread: 1 race; dispatcher prevents nothing here since
         the other side is a thread *)
      check_int (root ^ " handler race") 1 (O2_race.Detect.n_races r))
    [
      ("Handler", "handle");
      ("EventHandler", "handleEvent");
      ("Receiver", "onReceive");
      ("Listener", "actionPerformed");
    ]

(* ---------------- origin attributes (Figure 2 view) ---------------- *)

let test_origin_attributes () =
  let p = O2_workloads.Figures.figure2 () in
  let a = Solver.analyze ~policy:(Context.Korigin 1) p in
  let ogs = Solver.origins a in
  check_int "main + two thread origins" 3 (Array.length ogs);
  (* each non-main origin carries the shared Data plus its own Op *)
  let pag = a.Solver.pag in
  let classes_of i =
    List.map
      (fun oid -> (Pag.obj pag oid).Pag.ob_class)
      (Solver.origin_attrs a i)
    |> List.sort_uniq compare
  in
  let attrs = List.sort compare [ classes_of 1; classes_of 2 ] in
  Alcotest.(check (list (list string)))
    "attribute classes"
    [ [ "Data"; "Op1" ]; [ "Data"; "Op2" ] ]
    attrs

(* ---------------- cross-origin flows ---------------- *)

let test_static_cross_origin_flow () =
  (* a thread publishes an object via a static; another thread reads it and
     touches its field: the flow resolves and the race is on the published
     object *)
  let p =
    prog ~main:"M"
      [
        cls "G" ~sfields:[ "slot" ] [];
        cls "Data" ~fields:[ "v" ] [];
        cls "Pub" ~super:"Thread"
          [
            meth "run" []
              [ new_ "d" "Data" []; swrite "G" "slot" "d"; fwrite "d" "v" "d"; ret None ];
          ];
        cls "Sub" ~super:"Thread"
          [
            meth "run" []
              [ sread "d" "G" "slot"; fread "x" "d" "v"; ret None ];
          ];
        cls "M"
          [
            meth ~static:true "main" []
              [
                new_ "p" "Pub" [];
                new_ "s" "Sub" [];
                start "p";
                start "s";
              ];
          ];
      ]
  in
  let r = (O2.run O2.Config.default p).O2.report in
  (* races: the static slot itself (w/r) and the published Data.v (w/r) *)
  check_int "slot + payload races" 2 (O2_race.Detect.n_races r)

let test_array_cross_origin_flow () =
  let p =
    prog ~main:"M"
      [
        cls "Data" ~fields:[ "v" ] [];
        cls "Arr" [];
        cls "Prod" ~super:"Thread" ~fields:[ "a" ]
          [
            meth "init" [ "a" ] [ fwrite "this" "a" "a" ];
            meth "run" []
              [
                fread "arr" "this" "a";
                new_ "d" "Data" [];
                awrite "arr" "d";
                ret None;
              ];
          ];
        cls "Cons" ~super:"Thread" ~fields:[ "a" ]
          [
            meth "init" [ "a" ] [ fwrite "this" "a" "a" ];
            meth "run" []
              [
                fread "arr" "this" "a";
                aread "d" "arr";
                fwrite "d" "v" "d";
                ret None;
              ];
          ];
        cls "M"
          [
            meth ~static:true "main" []
              [
                new_ "arr" "Arr" [];
                new_ "p" "Prod" [ "arr" ];
                new_ "c" "Cons" [ "arr" ];
                start "p";
                start "c";
              ];
          ];
      ]
  in
  let a = Solver.analyze ~policy:(Context.Korigin 1) p in
  (* the producer's Data flows through the array into the consumer *)
  check_bool "payload crosses the array" true
    (Query.may_alias a ("Prod", "run", "d") ("Cons", "run", "d"));
  let r = (O2.run O2.Config.default p).O2.report in
  check_bool "array-cell race found" true (O2_race.Detect.n_races r >= 1)

(* ---------------- runtime corners ---------------- *)

let test_post_args_runtime () =
  let p =
    prog ~main:"M"
      [
        cls "Data" ~fields:[ "v" ] [];
        cls "H" ~super:"Handler"
          [
            meth "handle" [ "msg" ] [ fwrite "msg" "v" "msg"; ret None ];
          ];
        cls "M"
          [
            meth ~static:true "main" []
              [ new_ "h" "H" []; new_ "m" "Data" []; post "h" [ "m" ] ];
          ];
      ]
  in
  let o = O2_runtime.Interp.run ~seed:0 p in
  check_bool "completed" true o.O2_runtime.Interp.completed;
  check_bool "the posted argument reached the handler" true
    (List.exists
       (function
         | O2_runtime.Interp.Ewrite { field = "v"; _ } -> true
         | _ -> false)
       o.O2_runtime.Interp.events)

let test_static_call_runtime () =
  let p =
    prog ~main:"M"
      [
        cls "Data" ~fields:[ "v" ] [];
        cls "F"
          [
            meth ~static:true "mk" [] [ new_ "x" "Data" []; ret (Some "x") ];
          ];
        cls "M"
          [
            meth ~static:true "main" []
              [ scall ~ret:"d" "F" "mk" []; fwrite "d" "v" "d" ];
          ];
      ]
  in
  check_bool "static call returns a value" true
    (O2_runtime.Interp.run p).O2_runtime.Interp.completed

let test_missing_method_runtime () =
  let p =
    prog ~main:"M"
      [
        cls "A" [];
        cls "M"
          [ meth ~static:true "main" [] [ new_ "a" "A" []; call "a" "nope" [] ] ];
      ]
  in
  match O2_runtime.Interp.run p with
  | exception O2_runtime.Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected Runtime_error"

(* ---------------- three-lock deadlock cycle ---------------- *)

let test_deadlock_three_way () =
  let worker name l1 l2 =
    cls name ~super:"Thread" ~fields:[ "a"; "b" ]
      [
        meth "init" [ "a"; "b" ]
          [ fwrite "this" "a" "a"; fwrite "this" "b" "b" ];
        meth "run" []
          [
            fread "a" "this" "a";
            fread "b" "this" "b";
            sync "a" [ sync "b" [ fwrite "a" "v" "a" ] ];
            ret None;
          ];
      ]
    |> fun c -> (c, l1, l2)
  in
  let (c1, _, _), (c2, _, _), (c3, _, _) =
    (worker "W1" "x" "y", worker "W2" "y" "z", worker "W3" "z" "x")
  in
  let p =
    prog ~main:"M"
      [
        cls "Data" ~fields:[ "v" ] [];
        c1; c2; c3;
        cls "M"
          [
            meth ~static:true "main" []
              [
                new_ "x" "Data" [];
                new_ "y" "Data" [];
                new_ "z" "Data" [];
                new_ "w1" "W1" [ "x"; "y" ];
                new_ "w2" "W2" [ "y"; "z" ];
                new_ "w3" "W3" [ "z"; "x" ];
                start "w1";
                start "w2";
                start "w3";
              ];
          ];
      ]
  in
  let r = O2_race.Deadlock.run (O2.run O2.Config.default p).O2.graph in
  check_bool "three-way cycle found" true (O2_race.Deadlock.n_deadlocks r >= 1)

(* ---------------- JSON ---------------- *)

let test_json_output () =
  let m = O2_workloads.Models.find "zookeeper" in
  let r = O2.run O2.Config.default (m.program ()) in
  let json = O2_race.Report.to_json r.O2.solver r.O2.graph r.O2.report in
  check_bool "has races array" true (contains json "\"races\":[");
  check_bool "has summary" true (contains json "\"n_races\":1");
  check_bool "escapes backslashes safely" true
    (not (contains json "\n"))

let test_json_escaping () =
  (* a file name with quotes and newlines must not break the document *)
  let src =
    "main M;\nclass D { field f; }\nclass T extends Thread { field s; method \
     init(s) { this.s = s; } method run() { local d; d = this.s; d.f = d; } \
     }\nclass M { static method main() { local d, t1, t2; d = new D(); t1 = \
     new T(d); t2 = new T(d); start t1; start t2; } }"
  in
  let p = O2_frontend.Parser.parse_string ~file:"we\"ird\\name.cir" src in
  let r = O2.run O2.Config.default p in
  let json = O2_race.Report.to_json r.O2.solver r.O2.graph r.O2.report in
  check_bool "quote escaped" true (contains json "we\\\"ird");
  check_bool "backslash escaped" true (contains json "\\\\name")


(* ---------------- policy parsing ---------------- *)

let test_policy_spellings () =
  List.iter
    (fun (s, expected) ->
      match Context.policy_of_string s with
      | Ok p ->
          check_bool (Printf.sprintf "%S parses as %s" s (Context.policy_name p))
            true (p = expected)
      | Error e -> Alcotest.fail (Printf.sprintf "%S rejected: %s" s e))
    [
      ("0-ctx", Context.Insensitive);
      ("0ctx", Context.Insensitive);
      ("insensitive", Context.Insensitive);
      ("INSENSITIVE", Context.Insensitive);
      ("o2", Context.Korigin 1);
      ("O2", Context.Korigin 1);
      ("origin", Context.Korigin 1);
      ("1-origin", Context.Korigin 1);
      ("2-origin", Context.Korigin 2);
      ("1-cfa", Context.Kcfa 1);
      ("2-CFA", Context.Kcfa 2);
      ("1-obj", Context.Kobj 1);
      ("3-obj", Context.Kobj 3);
    ]

let test_policy_round_trip () =
  List.iter
    (fun p ->
      let name = Context.policy_name p in
      match Context.policy_of_string name with
      | Ok p' -> check_bool (name ^ " round-trips") true (p = p')
      | Error e -> Alcotest.fail (Printf.sprintf "%s rejected: %s" name e))
    [
      Context.Insensitive;
      Context.Korigin 1;
      Context.Korigin 2;
      Context.Kcfa 1;
      Context.Kcfa 2;
      Context.Kobj 1;
      Context.Kobj 2;
    ]

let test_policy_rejections () =
  List.iter
    (fun s ->
      match Context.policy_of_string s with
      | Error msg -> check_bool (s ^ " error is non-empty") true (msg <> "")
      | Ok p ->
          Alcotest.fail
            (Printf.sprintf "%S wrongly accepted as %s" s (Context.policy_name p)))
    [ "0-origin"; "0-cfa"; "0-obj"; "-1-cfa"; "-2-origin"; "x-origin"; "garbage"; "" ];
  (* the k >= 1 rejection points at the insensitive spelling instead *)
  (match Context.policy_of_string "0-origin" with
  | Error msg -> check_bool "mentions 0-ctx" true (contains msg "0-ctx")
  | Ok _ -> Alcotest.fail "0-origin wrongly accepted")

let test_policy_entry_validation () =
  (* a non-positive k can still be constructed programmatically; entry and
     the solver must reject it instead of silently degrading *)
  List.iter
    (fun p ->
      (match Context.entry p with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "Context.entry accepted non-positive k");
      match Solver.analyze ~policy:p (entry_prog "Thread" "run") with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "Solver.analyze accepted non-positive k")
    [ Context.Korigin 0; Context.Kcfa 0; Context.Kobj (-1) ];
  (* the solver ignores [jobs] but still rejects a non-positive value *)
  (match Solver.analyze ~jobs:0 (entry_prog "Thread" "run") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Solver.analyze accepted jobs = 0");
  (* valid policies still build an entry context *)
  List.iter
    (fun p -> ignore (Context.entry p))
    [ Context.Insensitive; Context.Korigin 1; Context.Kcfa 2; Context.Kobj 1 ]

(* ---------------- external calls (section 4.3) ---------------- *)

let test_external_call_anonymous_object () =
  (* calling a function with no body anywhere: the result is an anonymous
     object, so downstream accesses are still analyzed (section 4.3) *)
  let p =
    prog ~main:"M"
      [
        cls "Data" ~fields:[ "v" ] [];
        cls "Libc" [];
        cls "W" ~super:"Thread" ~fields:[ "io" ]
          [
            meth "init" [ "io" ] [ fwrite "this" "io" "io" ];
            meth "run" []
              [
                fread "io" "this" "io";
                call ~ret:"buf" "io" "read_external" [];
                fwrite "buf" "v" "buf";
                ret None;
              ];
          ];
        cls "M"
          [
            meth ~static:true "main" []
              [
                new_ "io" "Libc" [];
                new_ "w1" "W" [ "io" ];
                new_ "w2" "W" [ "io" ];
                start "w1";
                start "w2";
              ];
          ];
      ]
  in
  let a = Solver.analyze ~policy:(Context.Korigin 1) p in
  let objs = Query.points_to a ~cls:"W" ~meth:"run" ~var:"buf" in
  check_bool "anonymous object created" true (objs <> []);
  check_bool "marked external" true
    (List.for_all (fun oi -> oi.Query.oi_class = "<external>") objs);
  (* under the origin policy each origin's external result is its own
     object: no false race between the two workers *)
  let r = (O2.run O2.Config.default p).O2.report in
  check_int "O2: per-origin external results" 0 (O2_race.Detect.n_races r)

let test_internal_unresolved_no_anon () =
  (* a name that exists on some class is not external: no anonymous object
     even if this receiver cannot dispatch it *)
  let p =
    prog ~main:"M"
      [
        cls "A" [];
        cls "B" [ meth "f" [] [ ret None ] ];
        cls "M"
          [
            meth ~static:true "main" []
              [ new_ "a" "A" []; call ~ret:"r" "a" "f" [] ];
          ];
      ]
  in
  let a = Solver.analyze ~policy:(Context.Korigin 1) p in
  check_int "no anonymous object" 0
    (List.length (Query.points_to a ~cls:"M" ~meth:"main" ~var:"r"))

let () =
  Alcotest.run "misc"
    [
      ( "builtin-roots",
        [
          Alcotest.test_case "thread roots" `Quick test_thread_roots;
          Alcotest.test_case "handler roots" `Quick test_handler_roots;
        ] );
      ( "origins",
        [ Alcotest.test_case "figure2 attributes" `Quick test_origin_attributes ] );
      ( "flows",
        [
          Alcotest.test_case "static publication" `Quick
            test_static_cross_origin_flow;
          Alcotest.test_case "array channel" `Quick
            test_array_cross_origin_flow;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "post args" `Quick test_post_args_runtime;
          Alcotest.test_case "static call" `Quick test_static_call_runtime;
          Alcotest.test_case "missing method" `Quick
            test_missing_method_runtime;
        ] );
      ( "deadlock",
        [ Alcotest.test_case "three-way" `Quick test_deadlock_three_way ] );
      ( "external",
        [
          Alcotest.test_case "anonymous object" `Quick
            test_external_call_anonymous_object;
          Alcotest.test_case "internal unresolved" `Quick
            test_internal_unresolved_no_anon;
        ] );
      ( "policy",
        [
          Alcotest.test_case "spellings" `Quick test_policy_spellings;
          Alcotest.test_case "round-trip" `Quick test_policy_round_trip;
          Alcotest.test_case "rejections" `Quick test_policy_rejections;
          Alcotest.test_case "entry validation" `Quick
            test_policy_entry_validation;
        ] );
      ( "json",
        [
          Alcotest.test_case "structure" `Quick test_json_output;
          Alcotest.test_case "escaping" `Quick test_json_escaping;
        ] );
    ]
