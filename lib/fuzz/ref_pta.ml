open O2_ir
open O2_util
open O2_pta

(* The seed's immediate-firing serial solver, preserved as the executable
   specification of Table 2. The production engine ({!Solver}) uses
   difference propagation and SCC collapse; this module keeps the
   straightforward recursive formulation so property tests can certify the
   engine against it and the benchmarks can report an honest serial
   baseline. It lives in the differential tester, out of reach of the
   analysis pipeline. *)

module OPag = struct
  module ObjIntern = Intern.Make (struct
    type t = Pag.obj

    let equal = ( = )
    let hash = Hashtbl.hash
  end)

  module NodeIntern = Intern.Make (struct
    type t = Pag.node

    let equal = ( = )
    let hash = Hashtbl.hash
  end)

  type t = {
    objs : ObjIntern.t;
    nodes : NodeIntern.t;
    mutable pts : Bitset.t array;
    succs : (int, int list ref) Hashtbl.t;
    edge_set : (int * int, unit) Hashtbl.t;
    watchers : (int, (int -> unit) list ref) Hashtbl.t;
    mutable worklist : (int * int list) list;  (* (node, delta objs), LIFO *)
  }

  let create () =
    {
      objs = ObjIntern.create ();
      nodes = NodeIntern.create ();
      pts = [||];
      succs = Hashtbl.create 256;
      edge_set = Hashtbl.create 256;
      watchers = Hashtbl.create 64;
      worklist = [];
    }

  let obj_id g o = ObjIntern.intern g.objs o
  let obj g id = ObjIntern.value g.objs id

  let ensure_pts g id =
    let n = Array.length g.pts in
    if id >= n then begin
      let cap = max 64 (max (id + 1) (n * 2)) in
      let a =
        Array.init cap (fun i -> if i < n then g.pts.(i) else Bitset.create ())
      in
      g.pts <- a
    end

  let node_id g n =
    let id = NodeIntern.intern g.nodes n in
    ensure_pts g id;
    id

  let schedule g n delta =
    if delta <> [] then g.worklist <- (n, delta) :: g.worklist

  let add_obj g n o = if Bitset.add g.pts.(n) o then schedule g n [ o ]

  let add_copy g ~src ~dst =
    if src <> dst && not (Hashtbl.mem g.edge_set (src, dst)) then begin
      Hashtbl.add g.edge_set (src, dst) ();
      (match Hashtbl.find_opt g.succs src with
      | Some l -> l := dst :: !l
      | None -> Hashtbl.add g.succs src (ref [ dst ]));
      let delta =
        Bitset.fold
          (fun o acc -> if Bitset.add g.pts.(dst) o then o :: acc else acc)
          g.pts.(src) []
      in
      schedule g dst delta
    end

  let add_watcher g n f =
    (match Hashtbl.find_opt g.watchers n with
    | Some l -> l := f :: !l
    | None -> Hashtbl.add g.watchers n (ref [ f ]));
    Bitset.iter f g.pts.(n)

  let solve g =
    let rec loop () =
      match g.worklist with
      | [] -> ()
      | (n, delta) :: rest ->
          g.worklist <- rest;
          (match Hashtbl.find_opt g.succs n with
          | Some l ->
              List.iter
                (fun dst ->
                  let fresh =
                    List.filter (fun o -> Bitset.add g.pts.(dst) o) delta
                  in
                  schedule g dst fresh)
                !l
          | None -> ());
          (match Hashtbl.find_opt g.watchers n with
          | Some l ->
              let fs = !l in
              List.iter (fun o -> List.iter (fun f -> f o) fs) delta
          | None -> ());
          loop ()
    in
    loop ()

  let iter_nodes f g = NodeIntern.iter (fun id n -> f id n g.pts.(id)) g.nodes
end

type spawn = {
  sp_site : int;
  sp_entry : Program.meth;
  sp_ectx : Context.t;
  sp_obj : int;
  sp_kind : [ `Main | `Thread | `Event ];
  sp_in_loop : bool;
}

module OriginIntern = Intern.Make (struct
  type t = Context.origin

  let equal = ( = )
  let hash = Hashtbl.hash
end)

type meth_key = Types.cname * Types.mname * Context.t

type reach_info = {
  mutable incoming : int list;
  incoming_set : (int, unit) Hashtbl.t;
  mutable processed : bool;
  mutable origin_allocs : (int -> unit) list;
}

type t = {
  program : Program.t;
  policy : Context.policy;
  pag : OPag.t;
  reach_tbl : (meth_key, reach_info) Hashtbl.t;
  call_edges : (int * Context.t, (Program.meth * Context.t) list ref) Hashtbl.t;
  call_edge_keys :
    (int * Context.t * Types.cname * Types.mname * Context.t, unit) Hashtbl.t;
  mutable spawn_list : spawn list;
  spawn_keys :
    (int * Types.cname * Types.mname * Context.t * int, unit) Hashtbl.t;
  mutable join_list : (int * Types.cname * Types.mname * Context.t * Types.vname) list;
  origin_reg : OriginIntern.t;
  origin_attr_nodes : (int, int list ref) Hashtbl.t;
  origin_attr_seen : (int * int, unit) Hashtbl.t;
}

let nvar st (m : Program.meth) ctx v =
  OPag.node_id st.pag (Pag.NVar (m.Program.m_class, m.Program.m_name, v, ctx))

let nret st (m : Program.meth) ctx =
  OPag.node_id st.pag (Pag.NRet (m.Program.m_class, m.Program.m_name, ctx))

let record_call_edge st ~site ~ctx ((target, cctx) as callee) =
  let dedup =
    (site, ctx, target.Program.m_class, target.Program.m_name, cctx)
  in
  if not (Hashtbl.mem st.call_edge_keys dedup) then begin
    Hashtbl.add st.call_edge_keys dedup ();
    match Hashtbl.find_opt st.call_edges (site, ctx) with
    | Some l -> l := callee :: !l
    | None -> Hashtbl.add st.call_edges (site, ctx) (ref [ callee ])
  end

let record_spawn st ~site ~entry ~ectx ~obj ~kind ~in_loop =
  let key = (site, entry.Program.m_class, entry.Program.m_name, ectx, obj) in
  if not (Hashtbl.mem st.spawn_keys key) then begin
    Hashtbl.add st.spawn_keys key ();
    st.spawn_list <-
      {
        sp_site = site;
        sp_entry = entry;
        sp_ectx = ectx;
        sp_obj = obj;
        sp_kind = kind;
        sp_in_loop = in_loop;
      }
      :: st.spawn_list
  end

let heap_ctx policy (ctx : Context.t) : Context.t =
  match policy with Context.Insensitive -> Context.Cempty | _ -> ctx

let rec reach st ?(via_site = -1) (m : Program.meth) (ctx : Context.t) =
  let key = (m.Program.m_class, m.Program.m_name, ctx) in
  let info =
    match Hashtbl.find_opt st.reach_tbl key with
    | Some i -> i
    | None ->
        let i =
          {
            incoming = [];
            incoming_set = Hashtbl.create 4;
            processed = false;
            origin_allocs = [];
          }
        in
        Hashtbl.add st.reach_tbl key i;
        i
  in
  let new_site =
    via_site >= 0 && not (Hashtbl.mem info.incoming_set via_site)
  in
  if new_site then begin
    Hashtbl.add info.incoming_set via_site ();
    info.incoming <- via_site :: info.incoming
  end;
  if not info.processed then begin
    info.processed <- true;
    process_body st m ctx info m.Program.m_body
  end
  else if new_site then
    List.iter (fun redo -> redo via_site) info.origin_allocs

and process_body st (m : Program.meth) ctx info body =
  List.iter (fun s -> process_stmt st m ctx info s) body

and process_stmt st (m : Program.meth) ctx info (s : Ast.stmt) =
  let site = s.Ast.sid in
  let p = st.program in
  let policy = st.policy in
  match s.Ast.sk with
  | Ast.Null _ | Ast.Return None | Ast.Signal _ | Ast.Wait _ -> ()
  | Ast.Join x ->
      st.join_list <-
        (site, m.Program.m_class, m.Program.m_name, ctx, x) :: st.join_list
  | Ast.Assign (x, y) ->
      OPag.add_copy st.pag ~src:(nvar st m ctx y) ~dst:(nvar st m ctx x)
  | Ast.New (x, c, args) -> process_new st m ctx info ~site ~x ~c ~args
  | Ast.FieldWrite (x, f, y) ->
      let ynode = nvar st m ctx y in
      OPag.add_watcher st.pag (nvar st m ctx x) (fun o ->
          OPag.add_copy st.pag ~src:ynode
            ~dst:(OPag.node_id st.pag (Pag.NField (o, f))))
  | Ast.FieldRead (x, y, f) ->
      let xnode = nvar st m ctx x in
      OPag.add_watcher st.pag (nvar st m ctx y) (fun o ->
          OPag.add_copy st.pag
            ~src:(OPag.node_id st.pag (Pag.NField (o, f)))
            ~dst:xnode)
  | Ast.ArrayWrite (x, y) ->
      let ynode = nvar st m ctx y in
      OPag.add_watcher st.pag (nvar st m ctx x) (fun o ->
          OPag.add_copy st.pag ~src:ynode
            ~dst:(OPag.node_id st.pag (Pag.NField (o, "*"))))
  | Ast.ArrayRead (x, y) ->
      let xnode = nvar st m ctx x in
      OPag.add_watcher st.pag (nvar st m ctx y) (fun o ->
          OPag.add_copy st.pag
            ~src:(OPag.node_id st.pag (Pag.NField (o, "*")))
            ~dst:xnode)
  | Ast.StaticWrite (c, f, y) ->
      OPag.add_copy st.pag ~src:(nvar st m ctx y)
        ~dst:(OPag.node_id st.pag (Pag.NStatic (c, f)))
  | Ast.StaticRead (x, c, f) ->
      OPag.add_copy st.pag
        ~src:(OPag.node_id st.pag (Pag.NStatic (c, f)))
        ~dst:(nvar st m ctx x)
  | Ast.Call (ret, y, mname, args) ->
      let arg_nodes = List.map (nvar st m ctx) args in
      let ret_node = Option.map (nvar st m ctx) ret in
      if not (Program.any_method_named p mname) then begin
        match ret_node with
        | Some r ->
            let hctx = heap_ctx policy ctx in
            let oid =
              OPag.obj_id st.pag
                { Pag.ob_site = site; ob_class = "<external>"; ob_hctx = hctx }
            in
            OPag.add_obj st.pag r oid
        | None -> ()
      end;
      OPag.add_watcher st.pag (nvar st m ctx y) (fun oid ->
          let o = OPag.obj st.pag oid in
          match Program.dispatch p o.Pag.ob_class mname with
          | None -> ()
          | Some target ->
              let cctx =
                Context.push_call policy ~ctx ~site ~recv_site:o.Pag.ob_site
                  ~recv_hctx:o.Pag.ob_hctx
              in
              bind_call st ~site ~ctx ~target ~cctx ~this:(Some oid) ~arg_nodes
                ~ret_node)
  | Ast.StaticCall (ret, c, mname, args) -> (
      match Program.static_method p c mname with
      | None -> ()
      | Some target ->
          let cctx = Context.push_call_static policy ~ctx ~site in
          let arg_nodes = List.map (nvar st m ctx) args in
          let ret_node = Option.map (nvar st m ctx) ret in
          bind_call st ~site ~ctx ~target ~cctx ~this:None ~arg_nodes ~ret_node)
  | Ast.Start x ->
      let in_loop = Program.stmt_in_loop p site in
      OPag.add_watcher st.pag (nvar st m ctx x) (fun oid ->
          let o = OPag.obj st.pag oid in
          match Program.kind_of p o.Pag.ob_class with
          | Program.Kthread _ -> (
              match Program.entry_method p o.Pag.ob_class with
              | None -> ()
              | Some entry ->
                  let ectx = entry_ctx st ~ctx ~site ~o in
                  reach st entry ectx;
                  OPag.add_obj st.pag (nvar st entry ectx "this") oid;
                  record_spawn st ~site ~entry ~ectx ~obj:oid ~kind:`Thread
                    ~in_loop)
          | _ -> ())
  | Ast.Post (x, args) ->
      let in_loop = Program.stmt_in_loop p site in
      let arg_nodes = List.map (nvar st m ctx) args in
      OPag.add_watcher st.pag (nvar st m ctx x) (fun oid ->
          let o = OPag.obj st.pag oid in
          match Program.kind_of p o.Pag.ob_class with
          | Program.Khandler _ -> (
              match Program.entry_method p o.Pag.ob_class with
              | None -> ()
              | Some entry ->
                  let ectx = entry_ctx st ~ctx ~site ~o in
                  reach st entry ectx;
                  OPag.add_obj st.pag (nvar st entry ectx "this") oid;
                  bind_params st entry ectx arg_nodes;
                  record_spawn st ~site ~entry ~ectx ~obj:oid ~kind:`Event
                    ~in_loop)
          | _ -> ())
  | Ast.Sync (_, body) -> process_body st m ctx info body
  | Ast.If (a, b) ->
      process_body st m ctx info a;
      process_body st m ctx info b
  | Ast.While body -> process_body st m ctx info body
  | Ast.Return (Some v) ->
      OPag.add_copy st.pag ~src:(nvar st m ctx v) ~dst:(nret st m ctx)

and bind_params st (target : Program.meth) cctx arg_nodes =
  List.iteri
    (fun i param ->
      match List.nth_opt arg_nodes i with
      | Some a -> OPag.add_copy st.pag ~src:a ~dst:(nvar st target cctx param)
      | None -> ())
    target.Program.m_params

and bind_call st ~site ~ctx ~target ~cctx ~this ~arg_nodes ~ret_node =
  reach st ~via_site:site target cctx;
  (match this with
  | Some oid -> OPag.add_obj st.pag (nvar st target cctx "this") oid
  | None -> ());
  bind_params st target cctx arg_nodes;
  (match ret_node with
  | Some r -> OPag.add_copy st.pag ~src:(nret st target cctx) ~dst:r
  | None -> ());
  record_call_edge st ~site ~ctx (target, cctx)

and entry_ctx st ~ctx ~site ~(o : Pag.obj) =
  match st.policy with
  | Context.Korigin _ -> o.Pag.ob_hctx
  | policy ->
      Context.push_call policy ~ctx ~site ~recv_site:o.Pag.ob_site
        ~recv_hctx:o.Pag.ob_hctx

and process_new st (m : Program.meth) ctx info ~site ~x ~c ~args =
  let p = st.program in
  let policy = st.policy in
  let arg_nodes = List.map (nvar st m ctx) args in
  let xnode = nvar st m ctx x in
  let is_origin_alloc =
    match (policy, Program.kind_of p c) with
    | Context.Korigin _, (Program.Kthread _ | Program.Khandler _) -> true
    | _ -> false
  in
  if not is_origin_alloc then begin
    let hctx = heap_ctx policy ctx in
    let oid =
      OPag.obj_id st.pag { Pag.ob_site = site; ob_class = c; ob_hctx = hctx }
    in
    OPag.add_obj st.pag xnode oid;
    match Program.dispatch p c "init" with
    | None -> ()
    | Some init ->
        let cctx =
          Context.push_call policy ~ctx ~site ~recv_site:site ~recv_hctx:hctx
        in
        bind_call st ~site ~ctx ~target:init ~cctx ~this:(Some oid) ~arg_nodes
          ~ret_node:None
  end
  else begin
    let k = match policy with Context.Korigin k -> k | _ -> 1 in
    let chain = match ctx with Context.Corigin ch -> ch | _ -> [ 0 ] in
    let parent = match chain with pr :: _ -> pr | [] -> 0 in
    let rec ancestry_has_site og_id =
      og_id > 0
      &&
      let og = OriginIntern.value st.origin_reg og_id in
      og.Context.og_site = site
      ||
      match og.Context.og_parent with
      | pr :: _ -> ancestry_has_site pr
      | [] -> false
    in
    let id_parent =
      if parent = 0 || ancestry_has_site parent then [] else [ parent ]
    in
    let copies = if Program.stmt_in_loop p site then [ 0; 1 ] else [ 0 ] in
    let alloc_under ~wrapper =
      List.iter
        (fun copy ->
          let og : Context.origin =
            {
              Context.og_site = site;
              og_wrapper = wrapper;
              og_copy = copy;
              og_class = c;
              og_parent = id_parent;
            }
          in
          let og_id = OriginIntern.intern st.origin_reg og in
          (match Hashtbl.find_opt st.origin_attr_nodes og_id with
          | Some l ->
              List.iter
                (fun a ->
                  if not (Hashtbl.mem st.origin_attr_seen (og_id, a)) then begin
                    Hashtbl.add st.origin_attr_seen (og_id, a) ();
                    l := a :: !l
                  end)
                arg_nodes
          | None ->
              List.iter
                (fun a -> Hashtbl.replace st.origin_attr_seen (og_id, a) ())
                arg_nodes;
              Hashtbl.add st.origin_attr_nodes og_id (ref arg_nodes));
          let chain' = Context.truncate k (og_id :: chain) in
          let hctx = Context.Corigin chain' in
          let oid =
            OPag.obj_id st.pag { Pag.ob_site = site; ob_class = c; ob_hctx = hctx }
          in
          OPag.add_obj st.pag xnode oid;
          match Program.dispatch p c "init" with
          | None -> ()
          | Some init ->
              bind_call st ~site ~ctx ~target:init ~cctx:hctx ~this:(Some oid)
                ~arg_nodes ~ret_node:None)
        copies
    in
    (match info.incoming with
    | [] -> alloc_under ~wrapper:(-1)
    | sites -> List.iter (fun ws -> alloc_under ~wrapper:ws) sites);
    info.origin_allocs <-
      (fun ws -> alloc_under ~wrapper:ws) :: info.origin_allocs
  end

let analyze ?(policy = Context.Korigin 1) program =
  Context.validate_policy policy;
  let st =
    {
      program;
      policy;
      pag = OPag.create ();
      reach_tbl = Hashtbl.create 256;
      call_edges = Hashtbl.create 256;
      call_edge_keys = Hashtbl.create 256;
      spawn_list = [];
      spawn_keys = Hashtbl.create 64;
      join_list = [];
      origin_reg = OriginIntern.create ();
      origin_attr_nodes = Hashtbl.create 64;
      origin_attr_seen = Hashtbl.create 64;
    }
  in
  let zero = OriginIntern.intern st.origin_reg Context.main_origin in
  assert (zero = 0);
  let main = Program.main program in
  let ectx = Context.entry policy in
  reach st main ectx;
  OPag.solve st.pag;
  OPag.solve st.pag;
  record_spawn st ~site:(-1) ~entry:main ~ectx ~obj:(-1) ~kind:`Main
    ~in_loop:false;
  st

let fingerprint st =
  let kind_name = function
    | `Main -> "main"
    | `Thread -> "thread"
    | `Event -> "event"
  in
  Solver.fingerprint_parts
    ~origin_of:(fun og -> OriginIntern.value st.origin_reg og)
    ~iter_nodes:(fun f -> OPag.iter_nodes (fun _ n set -> f n set) st.pag)
    ~obj_of:(fun oid -> OPag.obj st.pag oid)
    ~spawns:
      (List.map
         (fun sp ->
           ( sp.sp_site,
             kind_name sp.sp_kind,
             sp.sp_entry,
             sp.sp_ectx,
             (if sp.sp_obj < 0 then None else Some (OPag.obj st.pag sp.sp_obj)),
             sp.sp_in_loop ))
         st.spawn_list)
    ~call_edges:
      (Hashtbl.fold
         (fun (site, ctx) l acc ->
           List.fold_left
             (fun acc (target, cctx) -> (site, ctx, target, cctx) :: acc)
             acc !l)
         st.call_edges [])
    ~joins:st.join_list
