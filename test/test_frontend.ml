open O2_frontend

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let parse src = Parser.parse_string src

let minimal = "main M;\nclass M { static method main() { } }"

(* ---------------- lexer ---------------- *)

let lex_all src =
  let lb = Lexing.from_string src in
  let rec go acc =
    match Lexer.token lb with
    | Token.EOF -> List.rev acc
    | t -> go (t :: acc)
  in
  go []

let test_lex_tokens () =
  let toks = lex_all "x = y.f; // comment\nstart t; [*] [ * ] ::" in
  Alcotest.(check int) "count" 12 (List.length toks);
  check_bool "star brackets" true
    (List.mem Token.STAR_BRACKETS toks && List.mem Token.COLONCOLON toks)

let keywords =
  Token.
    [
      ("main", KW_MAIN); ("class", KW_CLASS); ("extends", KW_EXTENDS);
      ("field", KW_FIELD); ("static", KW_STATIC); ("method", KW_METHOD);
      ("local", KW_LOCAL); ("new", KW_NEW); ("null", KW_NULL);
      ("start", KW_START); ("join", KW_JOIN); ("post", KW_POST);
      ("signal", KW_SIGNAL); ("wait", KW_WAIT); ("thread", KW_THREAD);
      ("handler", KW_HANDLER); ("sync", KW_SYNC); ("if", KW_IF);
      ("else", KW_ELSE); ("while", KW_WHILE); ("return", KW_RETURN);
    ]

let test_lex_keywords_vs_idents () =
  check_int "keyword count" 21 (List.length keywords);
  List.iter
    (fun (kw, tok) ->
      check_bool (kw ^ " is keyword") true (lex_all kw = [ tok ]);
      (* a keyword with a suffix, or cut short, is an identifier *)
      List.iter
        (fun s ->
          check_bool (s ^ " is ident") true (lex_all s = [ Token.IDENT s ]))
        [
          kw ^ "x"; kw ^ "_"; kw ^ "1"; String.sub kw 0 (String.length kw - 1);
        ])
    keywords;
  check_bool "synchro is ident" true
    (lex_all "synchro" = [ Token.IDENT "synchro" ]);
  check_bool "case matters" true (lex_all "While" = [ Token.IDENT "While" ]);
  check_bool "underscore ident" true (lex_all "_x9" = [ Token.IDENT "_x9" ])

let test_lex_block_comment () =
  Alcotest.(check bool)
    "block comment skipped" true
    (lex_all "a /* b \n c */ d" = [ Token.IDENT "a"; Token.IDENT "d" ])

let test_lex_unterminated_comment () =
  match lex_all "a /* never ends" with
  | exception Lexer.Lex_error _ -> ()
  | _ -> Alcotest.fail "expected Lex_error"

let test_lex_bad_char () =
  match lex_all "a $ b" with
  | exception Lexer.Lex_error (_, line) -> check_int "line" 1 line
  | _ -> Alcotest.fail "expected Lex_error"

(* ---------------- parser: statement forms ---------------- *)

let body_of src stmts_src =
  ignore src;
  let full =
    Printf.sprintf
      "main M;\nclass D { field f; }\nclass M { static method main() { local \
       x, y, a; y = new D(); a = new D(); %s } }"
      stmts_src
  in
  let p = parse full in
  let main = O2_ir.Program.main p in
  main.O2_ir.Program.m_body

let last_kind stmts_src =
  let body = body_of () stmts_src in
  (List.nth body (List.length body - 1)).O2_ir.Ast.sk

let test_parse_statements () =
  let open O2_ir.Ast in
  (match last_kind "x = y;" with Assign ("x", "y") -> () | _ -> Alcotest.fail "assign");
  (match last_kind "x = null;" with Null "x" -> () | _ -> Alcotest.fail "null");
  (match last_kind "x = new D(y, a);" with
  | New ("x", "D", [ "y"; "a" ]) -> ()
  | _ -> Alcotest.fail "new");
  (match last_kind "y.f = a;" with
  | FieldWrite ("y", "f", "a") -> ()
  | _ -> Alcotest.fail "fwrite");
  (match last_kind "x = y.f;" with
  | FieldRead ("x", "y", "f") -> ()
  | _ -> Alcotest.fail "fread");
  (match last_kind "y[*] = a;" with
  | ArrayWrite ("y", "a") -> ()
  | _ -> Alcotest.fail "awrite");
  (match last_kind "x = y[*];" with
  | ArrayRead ("x", "y") -> ()
  | _ -> Alcotest.fail "aread");
  (match last_kind "x = y.m(a);" with
  | Call (Some "x", "y", "m", [ "a" ]) -> ()
  | _ -> Alcotest.fail "call ret");
  (match last_kind "y.m();" with
  | Call (None, "y", "m", []) -> ()
  | _ -> Alcotest.fail "call");
  (match last_kind "x = M::sm(a);" with
  | StaticCall (Some "x", "M", "sm", [ "a" ]) -> ()
  | _ -> Alcotest.fail "scall ret");
  (match last_kind "M::sm();" with
  | StaticCall (None, "M", "sm", []) -> ()
  | _ -> Alcotest.fail "scall");
  (match last_kind "start y;" with Start "y" -> () | _ -> Alcotest.fail "start");
  (match last_kind "join y;" with Join "y" -> () | _ -> Alcotest.fail "join");
  (match last_kind "post y(a);" with
  | Post ("y", [ "a" ]) -> ()
  | _ -> Alcotest.fail "post");
  (match last_kind "return;" with Return None -> () | _ -> Alcotest.fail "ret");
  match last_kind "return y;" with
  | Return (Some "y") -> ()
  | _ -> Alcotest.fail "ret v"

let test_parse_static_access () =
  let src =
    "main M;\nclass G { static field g; }\nclass M { static method main() { \
     local x; x = G::g; G::g = x; } }"
  in
  let p = parse src in
  let main = O2_ir.Program.main p in
  match List.map (fun (s : O2_ir.Ast.stmt) -> s.sk) main.m_body with
  | [ O2_ir.Ast.StaticRead ("x", "G", "g"); O2_ir.Ast.StaticWrite ("G", "g", "x") ] -> ()
  | _ -> Alcotest.fail "static access forms"

let test_parse_nested_blocks () =
  let body =
    body_of ()
      "sync (y) { if { x = y; } else { while { x = a; } } } if { } x = y;"
  in
  check_int "top-level statements" 5 (List.length body);
  match (List.nth body 2).O2_ir.Ast.sk with
  | O2_ir.Ast.Sync ("y", [ { O2_ir.Ast.sk = O2_ir.Ast.If (_, _); _ } ]) -> ()
  | _ -> Alcotest.fail "nested structure"

let test_parse_if_no_else () =
  match last_kind "if { x = y; }" with
  | O2_ir.Ast.If ([ _ ], []) -> ()
  | _ -> Alcotest.fail "if without else"

let test_parse_positions () =
  let p = parse "main M;\nclass M { static method main() {\nlocal x;\nx = null;\n} }" in
  let main = O2_ir.Program.main p in
  match main.m_body with
  | [ s ] -> check_int "line" 4 s.O2_ir.Ast.pos.line
  | _ -> Alcotest.fail "one stmt"

let test_parse_main_as_ident () =
  (* "main" usable as a method name besides being the header keyword *)
  let p = parse minimal in
  Alcotest.(check string) "main name" "main" (O2_ir.Program.main p).m_name

let test_parse_class_members () =
  let p =
    parse
      "main M;\nclass C extends Thread { field a; static field s; method \
       run() { } static method mk() { } }\nclass M { static method main() { \
       } }"
  in
  match O2_ir.Program.find_class p "C" with
  | Some c ->
      Alcotest.(check (list string)) "fields" [ "a" ] c.c_fields;
      Alcotest.(check (list string)) "sfields" [ "s" ] c.c_sfields;
      check_bool "static method" true
        (O2_ir.Program.static_method p "C" "mk" <> None)
  | None -> Alcotest.fail "class C"

(* ---------------- parse errors ---------------- *)

let expect_parse_error src =
  match parse src with
  | exception Parser.Parse_error _ -> ()
  | _ -> Alcotest.fail "expected Parse_error"

let test_parse_errors () =
  expect_parse_error "class M { }";  (* missing main header *)
  expect_parse_error "main M\nclass M {}";  (* missing semicolon *)
  expect_parse_error "main M;\nclass M { static method main() { x = ; } }";
  expect_parse_error "main M;\nclass M { static method main() { x y; } }";
  expect_parse_error "main M;\nclass M { static method main() { sync x { } } }";
  expect_parse_error "main M;\nclass M { banana; }";
  expect_parse_error "main M;\nclass M { static method main() { start; } }"

let test_parse_error_line () =
  match parse "main M;\nclass M {\nstatic method main() {\n???\n} }" with
  | exception Lexer.Lex_error (_, line) -> check_int "line" 4 line
  | exception Parser.Parse_error (_, line) -> check_int "line" 4 line
  | _ -> Alcotest.fail "expected error"

let test_parse_file () =
  let tmp = Filename.temp_file "o2test" ".cir" in
  let oc = open_out tmp in
  output_string oc minimal;
  close_out oc;
  let p = Parser.parse_file tmp in
  Sys.remove tmp;
  Alcotest.(check string) "main" "M" (O2_ir.Program.main p).m_class

let test_parse_models_and_figures () =
  (* every embedded CIR source must parse and lint clean *)
  let programs =
    [
      O2_workloads.Figures.figure2 ();
      O2_workloads.Figures.figure3 ();
    ]
    @ List.concat_map
        (fun (m : O2_workloads.Models.model) -> [ m.program (); m.fixed () ])
        O2_workloads.Models.all
  in
  List.iter
    (fun p ->
      Alcotest.(check int) "lints clean" 0
        (List.length (O2_ir.Wellformed.check p)))
    programs

(* render → parse → render must be byte-identical across the full fuzz
   shape space (chains, storms, nested sync, degenerate empty bodies) —
   the printer/parser contract the differential harness's stage 1 rests
   on. The test_ir round trip covers the older helper generator; this one
   covers Synth.gen. *)
let prop_synth_roundtrip =
  QCheck2.Test.make ~name:"synth render→parse→render byte-identical"
    ~count:120
    ~print:(fun s -> Format.asprintf "%a" O2_workloads.Synth.pp_spec s)
    O2_workloads.Synth.gen
    (fun spec ->
      let p = O2_workloads.Synth.program spec in
      let src = O2_ir.Pp.program_to_string p in
      let p2 = parse src in
      String.equal src (O2_ir.Pp.program_to_string p2))

let () =
  Alcotest.run "frontend"
    [
      ( "lexer",
        [
          Alcotest.test_case "tokens" `Quick test_lex_tokens;
          Alcotest.test_case "keywords" `Quick test_lex_keywords_vs_idents;
          Alcotest.test_case "block comment" `Quick test_lex_block_comment;
          Alcotest.test_case "unterminated comment" `Quick
            test_lex_unterminated_comment;
          Alcotest.test_case "bad char" `Quick test_lex_bad_char;
        ] );
      ( "parser",
        [
          Alcotest.test_case "statement forms" `Quick test_parse_statements;
          Alcotest.test_case "static access" `Quick test_parse_static_access;
          Alcotest.test_case "nested blocks" `Quick test_parse_nested_blocks;
          Alcotest.test_case "if no else" `Quick test_parse_if_no_else;
          Alcotest.test_case "positions" `Quick test_parse_positions;
          Alcotest.test_case "main as ident" `Quick test_parse_main_as_ident;
          Alcotest.test_case "class members" `Quick test_parse_class_members;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "error line" `Quick test_parse_error_line;
          Alcotest.test_case "parse_file" `Quick test_parse_file;
          Alcotest.test_case "models+figures parse" `Quick
            test_parse_models_and_figures;
          QCheck_alcotest.to_alcotest prop_synth_roundtrip;
        ] );
    ]
