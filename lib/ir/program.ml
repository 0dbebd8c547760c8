open Types

type kind = Kthread of mname | Khandler of mname | Kplain

type meth = {
  m_name : mname;
  m_class : cname;
  m_static : bool;
  m_params : vname list;
  m_locals : vname list;
  m_body : Ast.stmt list;
}

type cls = {
  c_name : cname;
  c_super : cname option;
  c_fields : fname list;
  c_sfields : fname list;
  c_kind : kind;
  c_annot : Ast.origin_annot option;
}

type t = {
  cls_tbl : (cname, cls) Hashtbl.t;
  cls_order : cname list;
  meth_tbl : (cname * mname, meth) Hashtbl.t;
  meths_by_class : (cname, meth list) Hashtbl.t;
  main_m : meth;
  stmts : (Ast.stmt * meth) array;
  in_loop : bool array;
}

exception Ill_formed of string

let ill fmt = Format.kasprintf (fun s -> raise (Ill_formed s)) fmt

let builtin_roots =
  [
    ("Thread", Kthread "run");
    ("Runnable", Kthread "run");
    ("Callable", Kthread "call");
    ("Handler", Khandler "handle");
    ("EventHandler", Khandler "handleEvent");
    ("Receiver", Khandler "onReceive");
    ("Listener", Khandler "actionPerformed");
    (* Activities are not origins themselves: their lifecycle handlers are
       treated as method calls from the generated harness (§4.2) *)
    ("Activity", Kplain);
  ]

let is_builtin c = c = "Object" || List.mem_assoc c builtin_roots

(* -- statement-id renumbering ------------------------------------------- *)

let renumber_body counter body =
  let rec stmt (s : Ast.stmt) =
    let sid = O2_util.Idgen.next counter in
    let sk =
      match s.Ast.sk with
      | Ast.Sync (x, b) -> Ast.Sync (x, List.map stmt b)
      | Ast.While b -> Ast.While (List.map stmt b)
      | Ast.If (a, b) -> Ast.If (List.map stmt a, List.map stmt b)
      | sk -> sk
    in
    { s with Ast.sid; sk }
  in
  List.map stmt body

(* -- resolution --------------------------------------------------------- *)

let of_decls (d : Ast.program_decl) =
  let counter = O2_util.Idgen.create () in
  (* class table, pass 1: skeletons *)
  let decl_tbl = Hashtbl.create 64 in
  List.iter
    (fun (cd : Ast.class_decl) ->
      if Hashtbl.mem decl_tbl cd.Ast.cd_name then
        ill "duplicate class %s" cd.Ast.cd_name;
      if is_builtin cd.Ast.cd_name then
        ill "class %s shadows a builtin root" cd.Ast.cd_name;
      Hashtbl.add decl_tbl cd.Ast.cd_name cd)
    d.Ast.pd_classes;
  (* super chains: detect unknown supers and cycles; compute kind + fields *)
  let kind_cache = Hashtbl.create 64 in
  let fields_cache = Hashtbl.create 64 in
  let rec chain_info seen c =
    if List.mem c seen then ill "inheritance cycle through %s" c;
    match List.assoc_opt c builtin_roots with
    | Some k -> (k, [])
    | None when c = "Object" -> (Kplain, [])
    | None -> (
        match Hashtbl.find_opt decl_tbl c with
        | None -> ill "unknown class %s" c
        | Some cd ->
            let k, inherited =
              match cd.Ast.cd_super with
              | None -> (Kplain, [])
              | Some s -> chain_info (c :: seen) s
            in
            (* an explicit origin annotation (§3.1) wins over inheritance *)
            let k =
              match cd.Ast.cd_origin with
              | Some (Ast.Athread e) -> Kthread e
              | Some (Ast.Ahandler e) -> Khandler e
              | None -> k
            in
            Hashtbl.replace kind_cache c k;
            let fields = inherited @ cd.Ast.cd_fields in
            Hashtbl.replace fields_cache c fields;
            (k, fields))
  in
  List.iter
    (fun (cd : Ast.class_decl) -> ignore (chain_info [] cd.Ast.cd_name))
    d.Ast.pd_classes;
  (* build resolved classes and methods *)
  let cls_tbl = Hashtbl.create 64 in
  let meth_tbl = Hashtbl.create 256 in
  let meths_by_class = Hashtbl.create 64 in
  List.iter
    (fun (cd : Ast.class_decl) ->
      let c_name = cd.Ast.cd_name in
      let c_kind =
        match Hashtbl.find_opt kind_cache c_name with
        | Some k -> k
        | None -> Kplain
      in
      let cls =
        {
          c_name;
          c_super = cd.Ast.cd_super;
          c_fields = Hashtbl.find fields_cache c_name;
          c_sfields = cd.Ast.cd_sfields;
          c_kind;
          c_annot = cd.Ast.cd_origin;
        }
      in
      Hashtbl.add cls_tbl c_name cls;
      let ms =
        List.map
          (fun (md : Ast.meth_decl) ->
            if Hashtbl.mem meth_tbl (c_name, md.Ast.md_name) then
              ill "duplicate method %s.%s" c_name md.Ast.md_name;
            let m =
              {
                m_name = md.Ast.md_name;
                m_class = c_name;
                m_static = md.Ast.md_static;
                m_params = md.Ast.md_params;
                m_locals = md.Ast.md_locals;
                m_body = renumber_body counter md.Ast.md_body;
              }
            in
            Hashtbl.add meth_tbl (c_name, md.Ast.md_name) m;
            m)
          cd.Ast.cd_methods
      in
      Hashtbl.add meths_by_class c_name ms)
    d.Ast.pd_classes;
  let main_m =
    match Hashtbl.find_opt meth_tbl (d.Ast.pd_main, "main") with
    | Some m when m.m_static -> m
    | Some _ -> ill "main method of %s must be static" d.Ast.pd_main
    | None -> ill "no static main in class %s" d.Ast.pd_main
  in
  (* statement index + loop-nesting flags *)
  let n = O2_util.Idgen.current counter in
  let stmts = Array.make (max n 1) (Ast.mk (Ast.Return None), main_m) in
  let in_loop = Array.make (max n 1) false in
  let index_meth m =
    let rec go ~loop body =
      List.iter
        (fun (s : Ast.stmt) ->
          stmts.(s.Ast.sid) <- (s, m);
          in_loop.(s.Ast.sid) <- loop;
          match s.Ast.sk with
          | Ast.Sync (_, b) -> go ~loop b
          | Ast.If (a, b) ->
              go ~loop a;
              go ~loop b
          | Ast.While b -> go ~loop:true b
          | _ -> ())
        body
    in
    go ~loop:false m.m_body
  in
  Hashtbl.iter (fun _ ms -> List.iter index_meth ms) meths_by_class;
  let p =
    {
      cls_tbl;
      cls_order = List.map (fun (cd : Ast.class_decl) -> cd.Ast.cd_name) d.Ast.pd_classes;
      meth_tbl;
      meths_by_class;
      main_m;
      stmts;
      in_loop;
    }
  in
  p

(* -- queries ------------------------------------------------------------ *)

let main p = p.main_m
let find_class p c = Hashtbl.find_opt p.cls_tbl c

let classes p =
  List.filter_map (fun c -> Hashtbl.find_opt p.cls_tbl c) p.cls_order

let rec lookup_method p c m =
  match Hashtbl.find_opt p.meth_tbl (c, m) with
  | Some meth -> Some meth
  | None -> (
      match Hashtbl.find_opt p.cls_tbl c with
      | Some { c_super = Some s; _ } when not (is_builtin s) ->
          lookup_method p s m
      | _ -> None)

let dispatch p c m =
  match lookup_method p c m with
  | Some meth when not meth.m_static -> Some meth
  | _ -> None

let static_method p c m =
  match lookup_method p c m with
  | Some meth when meth.m_static -> Some meth
  | _ -> None

let kind_of p c =
  match List.assoc_opt c builtin_roots with
  | Some k -> k
  | None -> (
      match Hashtbl.find_opt p.cls_tbl c with
      | Some cls -> cls.c_kind
      | None -> Kplain)

let entry_method p c =
  match kind_of p c with
  | Kplain -> None
  | Kthread m | Khandler m -> dispatch p c m

let rec subclass_of p c root =
  c = root
  ||
  match Hashtbl.find_opt p.cls_tbl c with
  | Some { c_super = Some s; _ } -> subclass_of p s root
  | _ -> false

let n_stmts p = Array.length p.stmts

let stmt p sid =
  if sid < 0 || sid >= Array.length p.stmts then
    invalid_arg "Program.stmt: bad sid";
  p.stmts.(sid)

let stmt_in_loop p sid =
  sid >= 0 && sid < Array.length p.in_loop && p.in_loop.(sid)

let iter_methods f p =
  List.iter
    (fun c ->
      match Hashtbl.find_opt p.meths_by_class c with
      | Some ms -> List.iter f ms
      | None -> ())
    p.cls_order

let methods_of p c =
  match Hashtbl.find_opt p.meths_by_class c with Some ms -> ms | None -> []

let any_method_named p name =
  Hashtbl.fold
    (fun _ ms acc ->
      acc || List.exists (fun m -> m.m_name = name) ms)
    p.meths_by_class false
