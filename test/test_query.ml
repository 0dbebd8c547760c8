open O2_ir.Builder
open O2_pta

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let sample () =
  prog ~main:"M"
    [
      cls "Data" ~fields:[ "v" ] [];
      cls "Mk"
        [ meth "fresh" [] [ new_ "n" "Data" []; ret (Some "n") ] ];
      cls "W" ~super:"Thread" ~fields:[ "s" ]
        [
          meth "init" [ "s" ] [ fwrite "this" "s" "s" ];
          meth "run" []
            [
              fread "d" "this" "s";
              new_ "mk" "Mk" [];
              call ~ret:"own" "mk" "fresh" [];
              ret None;
            ];
        ];
      cls "M"
        [
          meth ~static:true "main" []
            [
              new_ "shared" "Data" [];
              new_ "w1" "W" [ "shared" ];
              new_ "w2" "W" [ "shared" ];
              start "w1";
              start "w2";
            ];
        ];
    ]

let analyze ?(policy = Context.Korigin 1) () = Solver.analyze ~policy (sample ())

(* ---------------- Query ---------------- *)

let test_points_to () =
  let a = analyze () in
  let objs = Query.points_to a ~cls:"W" ~meth:"run" ~var:"d" in
  check_int "d points to one Data" 1 (List.length objs);
  let oi = List.hd objs in
  Alcotest.(check string) "class" "Data" oi.Query.oi_class;
  check_bool "has a real site" true (oi.Query.oi_site >= 0);
  (* queries read the solved instance table: asking for a variable no
     instance has must not add a node to the solved graph *)
  let nodes = Pag.n_nodes a.Solver.pag in
  check_int "unknown var empty" 0
    (List.length (Query.points_to a ~cls:"W" ~meth:"run" ~var:"ghost"));
  check_int "query adds no node" nodes (Pag.n_nodes a.Solver.pag)

let test_points_to_origin_split () =
  let a = analyze () in
  (* `own` is the per-origin Data from Mk.fresh: two objects under OPA *)
  check_int "own split by origin" 2
    (List.length (Query.points_to a ~cls:"W" ~meth:"run" ~var:"own"));
  let a0 = analyze ~policy:Context.Insensitive () in
  check_int "own merged under 0-ctx" 1
    (List.length (Query.points_to a0 ~cls:"W" ~meth:"run" ~var:"own"))

let test_may_alias () =
  let a = analyze () in
  check_bool "d aliases shared" true
    (Query.may_alias a ("W", "run", "d") ("M", "main", "shared"));
  check_bool "own does not alias shared" false
    (Query.may_alias a ("W", "run", "own") ("M", "main", "shared"))

let test_objects_of_class () =
  let a = analyze () in
  (* shared + 2×fresh (per-origin) = 3 Data objects *)
  check_int "Data objects" 3 (List.length (Query.objects_of_class a "Data"));
  check_int "W objects" 2 (List.length (Query.objects_of_class a "W"));
  check_int "none of unknown class" 0
    (List.length (Query.objects_of_class a "Ghost"))

let test_call_graph () =
  let a = analyze () in
  let edges = Query.call_graph_edges a in
  check_bool "run -> fresh edge" true
    (List.exists (fun (c, e, _) -> c = "W.run" && e = "Mk.fresh") edges);
  check_bool "main -> init edge" true
    (List.exists (fun (c, e, _) -> c = "M.main" && e = "W.init") edges);
  let ms = Query.reachable_methods a in
  check_bool "reaches run" true (List.mem "W.run" ms);
  check_bool "reaches fresh" true (List.mem "Mk.fresh" ms)

(* figure 2's origin-sensitive call graph: both Op1.util and Op2.util are
   reachable, but each only from its own origin's subN *)
let test_figure2_callgraph () =
  let a = Solver.analyze ~policy:(Context.Korigin 1) (O2_workloads.Figures.figure2 ()) in
  let edges = Query.call_graph_edges a in
  check_bool "subN -> Op1.util" true
    (List.exists (fun (c, e, _) -> c = "T.subN" && e = "Op1.util") edges);
  check_bool "subN -> Op2.util" true
    (List.exists (fun (c, e, _) -> c = "T.subN" && e = "Op2.util") edges)

(* ---------------- Dot exporters ---------------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_dot_shb () =
  let a = analyze () in
  let g = O2_shb.Graph.build a in
  let s = Format.asprintf "%a" O2_shb.Dot.shb g in
  check_bool "digraph header" true (contains s "digraph shb");
  check_bool "has clusters" true (contains s "subgraph cluster_");
  check_bool "has spawn edges" true (contains s "color=blue")

let test_dot_origins () =
  let a = analyze () in
  let g = O2_shb.Graph.build a in
  let s = Format.asprintf "%a" O2_shb.Dot.origins g in
  check_bool "three origins" true
    (contains s "o0" && contains s "o1" && contains s "o2");
  check_bool "spawn labels" true (contains s "label=spawn")

let test_dot_callgraph () =
  let a = analyze () in
  let s = Format.asprintf "%a" O2_shb.Dot.callgraph a in
  check_bool "edge rendered" true (contains s "\"W.run\" -> \"Mk.fresh\"")

let () =
  Alcotest.run "query"
    [
      ( "query",
        [
          Alcotest.test_case "points_to" `Quick test_points_to;
          Alcotest.test_case "origin split" `Quick test_points_to_origin_split;
          Alcotest.test_case "may_alias" `Quick test_may_alias;
          Alcotest.test_case "objects_of_class" `Quick test_objects_of_class;
          Alcotest.test_case "call graph" `Quick test_call_graph;
          Alcotest.test_case "figure2 call graph" `Quick
            test_figure2_callgraph;
        ] );
      ( "dot",
        [
          Alcotest.test_case "shb" `Quick test_dot_shb;
          Alcotest.test_case "origins" `Quick test_dot_origins;
          Alcotest.test_case "callgraph" `Quick test_dot_callgraph;
        ] );
    ]
