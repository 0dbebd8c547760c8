open O2_util

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------------- Bitset ---------------- *)

let test_bitset_basic () =
  let s = Bitset.create () in
  check "empty" true (Bitset.is_empty s);
  check "add new" true (Bitset.add s 5);
  check "add dup" false (Bitset.add s 5);
  check "mem" true (Bitset.mem s 5);
  check "not mem" false (Bitset.mem s 6);
  check_int "cardinal" 1 (Bitset.cardinal s);
  check "mem beyond capacity" false (Bitset.mem s 10_000)

let test_bitset_growth () =
  let s = Bitset.create () in
  List.iter (fun i -> ignore (Bitset.add s i)) [ 0; 63; 64; 65; 1000; 4096 ];
  check_int "cardinal" 6 (Bitset.cardinal s);
  Alcotest.(check (list int))
    "elements sorted" [ 0; 63; 64; 65; 1000; 4096 ] (Bitset.elements s)

let test_bitset_union () =
  let a = Bitset.create () and b = Bitset.create () in
  List.iter (fun i -> ignore (Bitset.add a i)) [ 1; 2; 3 ];
  List.iter (fun i -> ignore (Bitset.add b i)) [ 3; 4; 200 ];
  check "union changes" true (Bitset.union_into ~into:a b);
  check "union idempotent" false (Bitset.union_into ~into:a b);
  Alcotest.(check (list int)) "result" [ 1; 2; 3; 4; 200 ] (Bitset.elements a)

let test_bitset_diff_new () =
  let a = Bitset.create () and b = Bitset.create () in
  List.iter (fun i -> ignore (Bitset.add a i)) [ 1; 2; 3; 70 ];
  List.iter (fun i -> ignore (Bitset.add b i)) [ 2; 70 ];
  Alcotest.(check (list int)) "delta" [ 1; 3 ] (Bitset.diff_new ~from:a ~minus:b)

let test_bitset_inter () =
  let a = Bitset.singleton 100 and b = Bitset.singleton 100 in
  check "overlap" true (Bitset.inter_nonempty a b);
  let c = Bitset.singleton 101 in
  check "disjoint" false (Bitset.inter_nonempty a c);
  check "empty vs empty" false
    (Bitset.inter_nonempty (Bitset.create ()) (Bitset.create ()))

let test_bitset_subset_equal () =
  let a = Bitset.create () and b = Bitset.create () in
  List.iter (fun i -> ignore (Bitset.add a i)) [ 1; 2 ];
  List.iter (fun i -> ignore (Bitset.add b i)) [ 1; 2; 3 ];
  check "subset" true (Bitset.subset a b);
  check "not subset" false (Bitset.subset b a);
  check "not equal" false (Bitset.equal a b);
  ignore (Bitset.add a 3);
  check "equal" true (Bitset.equal a b);
  (* equality must ignore trailing capacity differences *)
  let big = Bitset.create () in
  ignore (Bitset.add big 5000);
  let small = Bitset.singleton 1 in
  check "different sizes" false (Bitset.equal big small)

let test_bitset_copy_independent () =
  let a = Bitset.singleton 7 in
  let b = Bitset.copy a in
  ignore (Bitset.add b 8);
  check "original untouched" false (Bitset.mem a 8);
  check "copy has both" true (Bitset.mem b 7 && Bitset.mem b 8)

let test_bitset_negative_add () =
  Alcotest.check_raises "negative add" (Invalid_argument "Bitset.add: negative")
    (fun () -> ignore (Bitset.add (Bitset.create ()) (-1)))

(* qcheck: bitset behaves like a set of ints *)
let prop_bitset_model =
  QCheck2.Test.make ~name:"bitset agrees with list-set model" ~count:200
    QCheck2.Gen.(list (int_bound 500))
    (fun xs ->
      let s = Bitset.create () in
      List.iter (fun i -> ignore (Bitset.add s i)) xs;
      let model = List.sort_uniq compare xs in
      Bitset.elements s = model
      && Bitset.cardinal s = List.length model
      && List.for_all (Bitset.mem s) model)

let prop_bitset_union_commutes =
  QCheck2.Test.make ~name:"union_into = set union" ~count:200
    QCheck2.Gen.(pair (list (int_bound 300)) (list (int_bound 300)))
    (fun (xs, ys) ->
      let a = Bitset.create () and b = Bitset.create () in
      List.iter (fun i -> ignore (Bitset.add a i)) xs;
      List.iter (fun i -> ignore (Bitset.add b i)) ys;
      ignore (Bitset.union_into ~into:a b);
      Bitset.elements a = List.sort_uniq compare (xs @ ys))

let prop_bitset_diff =
  QCheck2.Test.make ~name:"diff_new = set difference" ~count:200
    QCheck2.Gen.(pair (list (int_bound 300)) (list (int_bound 300)))
    (fun (xs, ys) ->
      let a = Bitset.create () and b = Bitset.create () in
      List.iter (fun i -> ignore (Bitset.add a i)) xs;
      List.iter (fun i -> ignore (Bitset.add b i)) ys;
      Bitset.diff_new ~from:a ~minus:b
      = List.filter (fun x -> not (List.mem x ys)) (List.sort_uniq compare xs))

(* ---------------- Intern ---------------- *)

module SIntern = Intern.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

let test_intern_dense_ids () =
  let t = SIntern.create () in
  check_int "first" 0 (SIntern.intern t "a");
  check_int "second" 1 (SIntern.intern t "b");
  check_int "repeat" 0 (SIntern.intern t "a");
  check_int "count" 2 (SIntern.count t);
  Alcotest.(check string) "value" "b" (SIntern.value t 1);
  Alcotest.(check (option int)) "find" (Some 0) (SIntern.find_opt t "a");
  Alcotest.(check (option int)) "find missing" None (SIntern.find_opt t "z")

let test_intern_value_bad_id () =
  let t = SIntern.create () in
  ignore (SIntern.intern t "a");
  Alcotest.check_raises "bad id"
    (Invalid_argument "Intern.value: unknown id") (fun () ->
      ignore (SIntern.value t 7))

let test_intern_many () =
  let t = SIntern.create () in
  for i = 0 to 999 do
    check_int "id" i (SIntern.intern t (string_of_int i))
  done;
  check_int "count" 1000 (SIntern.count t);
  let seen = ref 0 in
  SIntern.iter (fun id v -> if string_of_int id = v then incr seen) t;
  check_int "iter consistent" 1000 !seen

(* ---------------- Metrics / Idgen ---------------- *)

let test_stats () =
  let s = Metrics.create () in
  Metrics.incr s "a";
  Metrics.incr s "a";
  Metrics.add s "b" 5;
  Metrics.set s "c" 7;
  check_int "a" 2 (Metrics.get s "a");
  check_int "b" 5 (Metrics.get s "b");
  check_int "c" 7 (Metrics.get s "c");
  check_int "missing" 0 (Metrics.get s "zzz");
  let x = Metrics.time s "t" (fun () -> 41 + 1) in
  check_int "time result" 42 x;
  check "timer recorded" true (Metrics.get_time s "t" >= 0.0);
  Alcotest.(check (list string))
    "counters sorted" [ "a"; "b"; "c" ]
    (List.map fst (Metrics.counters s))

let test_idgen () =
  let g = Idgen.create () in
  check_int "0" 0 (Idgen.next g);
  check_int "1" 1 (Idgen.next g);
  check_int "current" 2 (Idgen.current g);
  let g2 = Idgen.create () in
  check_int "independent" 0 (Idgen.next g2)

let () =
  Alcotest.run "util"
    [
      ( "bitset",
        [
          Alcotest.test_case "basic" `Quick test_bitset_basic;
          Alcotest.test_case "growth" `Quick test_bitset_growth;
          Alcotest.test_case "union" `Quick test_bitset_union;
          Alcotest.test_case "diff_new" `Quick test_bitset_diff_new;
          Alcotest.test_case "intersection" `Quick test_bitset_inter;
          Alcotest.test_case "subset/equal" `Quick test_bitset_subset_equal;
          Alcotest.test_case "copy" `Quick test_bitset_copy_independent;
          Alcotest.test_case "negative" `Quick test_bitset_negative_add;
          QCheck_alcotest.to_alcotest prop_bitset_model;
          QCheck_alcotest.to_alcotest prop_bitset_union_commutes;
          QCheck_alcotest.to_alcotest prop_bitset_diff;
        ] );
      ( "intern",
        [
          Alcotest.test_case "dense ids" `Quick test_intern_dense_ids;
          Alcotest.test_case "bad id" `Quick test_intern_value_bad_id;
          Alcotest.test_case "many" `Quick test_intern_many;
        ] );
      ( "stats",
        [
          Alcotest.test_case "counters/timers" `Quick test_stats;
          Alcotest.test_case "idgen" `Quick test_idgen;
        ] );
    ]
