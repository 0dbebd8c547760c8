open O2_ir
open O2_util

type spawn = {
  sp_id : int;
  sp_site : int;
  sp_entry : Program.meth;
  sp_ectx : Context.t;
  sp_obj : int;
  sp_kind : [ `Main | `Thread | `Event ];
  sp_in_loop : bool;
  sp_attr_nodes : int list;
}

type join = {
  jn_site : int;
  jn_meth : Program.meth;
  jn_ctx : Context.t;
  jn_var : Types.vname;
}

module OriginIntern = Intern.Make (struct
  type t = Context.origin

  let equal = ( = )
  let hash = Hashtbl.hash
end)

module IntTbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = (x * 0x9e3779b1) land max_int
end)

type meth_key = Types.cname * Types.mname * Context.t

type reach_info = {
  mutable incoming : int list;  (* call-site sids reaching this instance *)
  incoming_set : (int, unit) Hashtbl.t;  (* O(1) membership for [incoming] *)
  mutable processed : bool;
  mutable origin_allocs : (int -> unit) list;
      (* wrapper-site redo closures for origin allocations in this body *)
}

(* A method instance whose body still has to be turned into constraints. *)
type task = { tk_meth : Program.meth; tk_ctx : Context.t }

type tables = {
  t_program : Program.t;
  t_flat : Flat.t;  (* dense lowering; [add_body] scans only this *)
  t_policy : Context.policy;
  t_pag : Pag.t;
  reach_tbl : (meth_key, reach_info) Hashtbl.t;
  call_edges : (int * Context.t, (Program.meth * Context.t) list ref) Hashtbl.t;
  call_edge_keys :
    (int * Context.t * Types.cname * Types.mname * Context.t, int) Hashtbl.t;
      (* hashed dedup for call_edges (a per-site list scan is quadratic on
         megamorphic sites); the value caches the callee's interned "this"
         node (-1 when the call has no receiver) so repeat fires skip the
         structural intern probe *)
  mutable n_call_edges : int;
  mutable spawn_list : spawn list;
  spawn_keys : (int * Types.cname * Types.mname * Context.t * int, unit) Hashtbl.t;
  mutable join_list : join list;
  origin_reg : OriginIntern.t;
  origin_attr_nodes : (int, int list ref) Hashtbl.t;
  origin_attr_seen : (int * int, unit) Hashtbl.t;
      (* hashed dedup for origin_attr_nodes entries *)
  field_ids : (Types.fname, int) Hashtbl.t;
      (* dense field-name interning for the field-node memo *)
  fld_nodes : int IntTbl.t;
      (* packed (object id, field id) -> interned NField node: field
         watchers fire once per object per access site, and the structural
         intern of [NField] dominated that path — repeats cost one
         single-int probe (key = [oid lsl 20 lor fid]; dense field ids stay
         far below 2^20) *)
  mutable pending : task list;  (* bodies reached since the last round *)
}

(* Instance call graph: the solved, context-sensitive call graph re-keyed
   on dense ints. Each reachable (method, context) instance gets an
   instance id; per-instance arrays carry the solved points-to set of
   every variable slot and the callee instances of every call site. The
   flat SHB/OSA walkers traverse instances with nothing but array probes
   and one int-keyed table lookup per call site — no structural context
   hashing survives past the solve. *)
type icg = {
  ic_n : int;  (* instance count *)
  ic_mid : int array;  (* iid -> flat method id *)
  ic_pts : Bitset.t array array;  (* iid -> slot -> solved points-to *)
  ic_callees : (int, int array) Hashtbl.t;
      (* iid * ic_nsids + call sid -> callee iids, in [callees] order *)
  ic_entry : int array;  (* sp_id -> entry instance *)
  ic_nsids : int;
}

type result = {
  program : Program.t;
  flat : Flat.t;
  policy : Context.policy;
  pag : Pag.t;
  spawns : spawn array;
  joins : join list;
  stats : Metrics.t;
  tables : tables;
  icg : icg;
}

(* -- graph-building helpers --------------------------------------------- *)

let a_nvar st (m : Program.meth) ctx v =
  Pag.node_id st.t_pag (Pag.NVar (m.Program.m_class, m.Program.m_name, v, ctx))

let a_nret st (m : Program.meth) ctx =
  Pag.node_id st.t_pag (Pag.NRet (m.Program.m_class, m.Program.m_name, ctx))


let record_spawn st ~site ~entry ~ectx ~obj ~kind ~in_loop ~attr_nodes =
  let key =
    (site, entry.Program.m_class, entry.Program.m_name, ectx, obj)
  in
  if not (Hashtbl.mem st.spawn_keys key) then begin
    Hashtbl.add st.spawn_keys key ();
    let sp =
      {
        sp_id = -1;
        sp_site = site;
        sp_entry = entry;
        sp_ectx = ectx;
        sp_obj = obj;
        sp_kind = kind;
        sp_in_loop = in_loop;
        sp_attr_nodes = attr_nodes;
      }
    in
    st.spawn_list <- sp :: st.spawn_list
  end

let heap_ctx policy (ctx : Context.t) : Context.t =
  match policy with Context.Insensitive -> Context.Cempty | _ -> ctx

(* [a_reach] marks a method instance reached. The body is not processed
   inline (the old engine recursed here): it is queued as a task for the
   next round's [add_body]. A call site arriving later at an already-added
   body replays its origin allocations through the redo closures — the
   paper's k=1 wrapper extension. *)
let a_reach st ?(via_site = -1) (m : Program.meth) (ctx : Context.t) =
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
    st.pending <- { tk_meth = m; tk_ctx = ctx } :: st.pending
  end
  else if new_site then
    (* sites recorded before the body is added are folded in by [a_new]
       itself (it reads [incoming] then), so only genuinely late sites
       replay here *)
    List.iter (fun redo -> redo via_site) info.origin_allocs

(* Formal-parameter binding: actuals use the caller's context, formals the
   callee's (Table 2 ❽/❾ ownership note). *)
let a_bind_params st (target : Program.meth) cctx arg_nodes =
  List.iteri
    (fun i param ->
      match List.nth_opt arg_nodes i with
      | Some a ->
          Pag.add_copy st.t_pag ~src:a ~dst:(a_nvar st target cctx param)
      | None -> ())
    target.Program.m_params

let a_bind_call st ~site ~ctx ~target ~cctx ~this ~arg_nodes ~ret_node =
  let dedup =
    (site, ctx, target.Program.m_class, target.Program.m_name, cctx)
  in
  match Hashtbl.find_opt st.call_edge_keys dedup with
  | Some this_id -> (
      (* a repeated (site, ctx, target, cctx) edge — another receiver object
         of the same class reaching a virtual site — re-derives exactly the
         same param/ret copies (idempotent), so only the per-object "this"
         binding runs, against the node cached at the first bind *)
      match this with
      | None -> ()
      | Some oid ->
          let n =
            if this_id >= 0 then this_id
            else begin
              let n = a_nvar st target cctx "this" in
              Hashtbl.replace st.call_edge_keys dedup n;
              n
            end
          in
          Pag.add_obj st.t_pag n oid)
  | None ->
      let this_id =
        match this with
        | None -> -1
        | Some oid ->
            let n = a_nvar st target cctx "this" in
            Pag.add_obj st.t_pag n oid;
            n
      in
      Hashtbl.add st.call_edge_keys dedup this_id;
      st.n_call_edges <- st.n_call_edges + 1;
      (match Hashtbl.find_opt st.call_edges (site, ctx) with
      | Some l -> l := (target, cctx) :: !l
      | None -> Hashtbl.add st.call_edges (site, ctx) (ref [ (target, cctx) ]));
      a_reach st ~via_site:site target cctx;
      a_bind_params st target cctx arg_nodes;
      (match ret_node with
      | Some r -> Pag.add_copy st.t_pag ~src:(a_nret st target cctx) ~dst:r
      | None -> ())

(* Context for a thread/handler entry (Table 2 ❾): under the origin policy
   the origin was attached to the object at its allocation — the entry runs
   in the object's heap context. Other policies use their usual call rule. *)
let a_entry_ctx st ~ctx ~site ~(o : Pag.obj) =
  match st.t_policy with
  | Context.Korigin _ -> o.Pag.ob_hctx
  | policy ->
      Context.push_call policy ~ctx ~site ~recv_site:o.Pag.ob_site
        ~recv_hctx:o.Pag.ob_hctx

(* Attribute nodes of the origin carried by object [o]: registered at the
   origin allocation (origin policy); empty otherwise. *)
let a_origin_attrs_of st (o : Pag.obj) =
  match o.Pag.ob_hctx with
  | Context.Corigin (og :: _) -> (
      match Hashtbl.find_opt st.origin_attr_nodes og with
      | Some l -> !l
      | None -> [])
  | _ -> []

let a_new st ~site ~ctx ~info ~xnode ~c ~arg_nodes =
  let p = st.t_program in
  let policy = st.t_policy in
  let g = st.t_pag in
  let is_origin_alloc =
    match (policy, Program.kind_of p c) with
    | Context.Korigin _, (Program.Kthread _ | Program.Khandler _) -> true
    | _ -> false
  in
  if not is_origin_alloc then begin
    let hctx = heap_ctx policy ctx in
    let oid =
      Pag.obj_id g { Pag.ob_site = site; ob_class = c; ob_hctx = hctx }
    in
    Pag.add_obj g xnode oid;
    match Program.dispatch p c "init" with
    | None -> ()
    | Some init ->
        let cctx =
          Context.push_call policy ~ctx ~site ~recv_site:site ~recv_hctx:hctx
        in
        a_bind_call st ~site ~ctx ~target:init ~cctx ~this:(Some oid)
          ~arg_nodes ~ret_node:None
  end
  else begin
    (* Table 2 rule ❽: context switch at the origin allocation. "A new and
       unique origin is created for this new allocation": identity includes
       the immediate parent origin, so e.g. each copy of a loop-doubled
       parent spawns its own child origins (soundness of the doubling).
       Recursive spawn chains are collapsed — when an ancestor origin was
       created at this same allocation site, the parent is dropped from the
       identity — keeping the registry finite. *)
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
            Pag.obj_id g { Pag.ob_site = site; ob_class = c; ob_hctx = hctx }
          in
          Pag.add_obj g xnode oid;
          match Program.dispatch p c "init" with
          | None -> ()
          | Some init ->
              (* the init and the constructor-argument formals live in the
                 new origin (Figure 3) *)
              a_bind_call st ~site ~ctx ~target:init ~cctx:hctx
                ~this:(Some oid) ~arg_nodes ~ret_node:None)
        copies
    in
    (* one origin per incoming wrapper call site known now; re-done for call
       sites discovered later via the redo closure *)
    (match info.incoming with
    | [] -> alloc_under ~wrapper:(-1)
    | sites -> List.iter (fun ws -> alloc_under ~wrapper:ws) sites);
    info.origin_allocs <-
      (fun ws -> alloc_under ~wrapper:ws) :: info.origin_allocs
  end

(* -- constraint generation ---------------------------------------------- *)

let field_id st f =
  match Hashtbl.find_opt st.field_ids f with
  | Some i -> i
  | None ->
      let i = Hashtbl.length st.field_ids in
      (* the [fld_nodes] key packs the field id into 20 bits; overflowing
         it would silently alias unrelated field nodes *)
      if i lsr 20 <> 0 then
        invalid_arg "Solver.field_id: over 2^20 distinct field names";
      Hashtbl.add st.field_ids f i;
      i

(* Field watchers fire once per (base object, access site) and every fire
   needs the object's [NField] node; memoizing on the int pair turns the
   repeat structural interns into one table probe. *)
let fld_node st oid fid f =
  let key = (oid lsl 20) lor fid in
  match IntTbl.find_opt st.fld_nodes key with
  | Some n -> n
  | None ->
      let n = Pag.node_id st.t_pag (Pag.NField (oid, f)) in
      IntTbl.add st.fld_nodes key n;
      n

(* The watcher constraints: each installs a callback on a base node that
   runs at flush time, once per object reaching the base, and may add
   edges, objects and newly reached bodies. *)

let a_field_write st ~base ~src f =
  let g = st.t_pag in
  let fid = field_id st f in
  Pag.add_watcher g base (fun o ->
      Pag.add_copy g ~src ~dst:(fld_node st o fid f))

let a_field_read st ~base ~dst f =
  let g = st.t_pag in
  let fid = field_id st f in
  Pag.add_watcher g base (fun o ->
      Pag.add_copy g ~src:(fld_node st o fid f) ~dst)

let a_callv st ~recv ~site ~ctx mname ~arg_nodes ~ret_node =
  let g = st.t_pag in
  Pag.add_watcher g recv (fun oid ->
      let o = Pag.obj g oid in
      match Program.dispatch st.t_program o.Pag.ob_class mname with
      | None -> ()
      | Some target ->
          let cctx =
            Context.push_call st.t_policy ~ctx ~site ~recv_site:o.Pag.ob_site
              ~recv_hctx:o.Pag.ob_hctx
          in
          a_bind_call st ~site ~ctx ~target ~cctx ~this:(Some oid) ~arg_nodes
            ~ret_node)

let a_start st ~recv ~site ~ctx ~in_loop =
  let g = st.t_pag and p = st.t_program in
  Pag.add_watcher g recv (fun oid ->
      let o = Pag.obj g oid in
      match Program.kind_of p o.Pag.ob_class with
      | Program.Kthread _ -> (
          match Program.entry_method p o.Pag.ob_class with
          | None -> ()
          | Some entry ->
              let ectx = a_entry_ctx st ~ctx ~site ~o in
              a_reach st entry ectx;
              Pag.add_obj g (a_nvar st entry ectx "this") oid;
              record_spawn st ~site ~entry ~ectx ~obj:oid ~kind:`Thread
                ~in_loop ~attr_nodes:(a_origin_attrs_of st o))
      | _ -> ())

let a_post st ~recv ~site ~ctx ~arg_nodes ~in_loop =
  let g = st.t_pag and p = st.t_program in
  Pag.add_watcher g recv (fun oid ->
      let o = Pag.obj g oid in
      match Program.kind_of p o.Pag.ob_class with
      | Program.Khandler _ -> (
          match Program.entry_method p o.Pag.ob_class with
          | None -> ()
          | Some entry ->
              let ectx = a_entry_ctx st ~ctx ~site ~o in
              a_reach st entry ectx;
              Pag.add_obj g (a_nvar st entry ectx "this") oid;
              a_bind_params st entry ectx arg_nodes;
              record_spawn st ~site ~entry ~ectx ~obj:oid ~kind:`Event
                ~in_loop
                ~attr_nodes:(arg_nodes @ a_origin_attrs_of st o))
      | _ -> ())

(* [add_body st task] turns one reached method instance into constraints by
   a linear scan of its flat opcode stream — no AST, no string hashing:
   name resolution (static targets, the §4.3 external-call bit, in-loop
   flags) was baked in by {!Flat.lower}. Instructions sit in AST DFS order
   with block bodies inlined, so constraints are added in the legacy
   tree-walk's order. Within an instruction the operands are interned in
   the fixed order of the [let]s below; node ids, and with them flush order
   and every counter, depend on it. *)
let add_body st task =
  let g = st.t_pag in
  let fl = st.t_flat in
  let m = task.tk_meth in
  let ctx = task.tk_ctx in
  let mi = Flat.meth fl (Flat.mid_of_meth fl m) in
  let code = mi.Flat.f_code in
  (* interned node id per variable slot, -1 until first use: a variable
     used by many statements costs one intern probe *)
  let var_ids = Array.make mi.Flat.f_nslots (-1) in
  let var slot =
    let id = var_ids.(slot) in
    if id >= 0 then id
    else begin
      let id = a_nvar st m ctx mi.Flat.f_slot_name.(slot) in
      var_ids.(slot) <- id;
      id
    end
  in
  let args at nargs = List.init nargs (fun k -> var code.(at + k)) in
  let opt slot = if slot < 0 then None else Some (var slot) in
  let static slot =
    Pag.node_id g
      (Pag.NStatic
         ( Flat.class_name fl (Flat.static_cid fl slot),
           Flat.field_name fl (Flat.static_fid fl slot) ))
  in
  let star = Flat.field_name fl fl.Flat.f_star in
  let info =
    Hashtbl.find st.reach_tbl (m.Program.m_class, m.Program.m_name, ctx)
  in
  let n = Array.length code in
  let i = ref 0 in
  while !i < n do
    let op = code.(!i) and j = !i in
    let site = code.(j + 1) in
    if op = Flat.op_null then i := j + 2
    else if op = Flat.op_assign then begin
      let dst = var code.(j + 2) in
      let src = var code.(j + 3) in
      Pag.add_copy g ~src ~dst;
      i := j + 4
    end
    else if op = Flat.op_new then begin
      let nargs = code.(j + 4) in
      let arg_nodes = args (j + 5) nargs in
      let xnode = var code.(j + 2) in
      a_new st ~site ~ctx ~info ~xnode ~c:(Flat.class_name fl code.(j + 3))
        ~arg_nodes;
      i := j + 5 + nargs
    end
    else if op = Flat.op_fwrite then begin
      let src = var code.(j + 4) in
      let base = var code.(j + 2) in
      a_field_write st ~base ~src (Flat.field_name fl code.(j + 3));
      i := j + 5
    end
    else if op = Flat.op_fread then begin
      let dst = var code.(j + 2) in
      let base = var code.(j + 3) in
      a_field_read st ~base ~dst (Flat.field_name fl code.(j + 4));
      i := j + 5
    end
    else if op = Flat.op_awrite then begin
      let src = var code.(j + 3) in
      let base = var code.(j + 2) in
      a_field_write st ~base ~src star;
      i := j + 4
    end
    else if op = Flat.op_aread then begin
      let dst = var code.(j + 2) in
      let base = var code.(j + 3) in
      a_field_read st ~base ~dst star;
      i := j + 4
    end
    else if op = Flat.op_swrite then begin
      let dst = static code.(j + 2) in
      let src = var code.(j + 3) in
      Pag.add_copy g ~src ~dst;
      i := j + 4
    end
    else if op = Flat.op_sread then begin
      let dst = var code.(j + 2) in
      let src = static code.(j + 3) in
      Pag.add_copy g ~src ~dst;
      i := j + 4
    end
    else if op = Flat.op_callv then begin
      let ret = code.(j + 2) and nargs = code.(j + 6) in
      (* §4.3: the external bit marks calls whose name no program method
         bears; their result is an anonymous object so downstream accesses
         are still analyzed *)
      if code.(j + 5) = 1 && ret >= 0 then begin
        let oid =
          Pag.obj_id g
            {
              Pag.ob_site = site;
              ob_class = "<external>";
              ob_hctx = heap_ctx st.t_policy ctx;
            }
        in
        Pag.add_obj g (var ret) oid
      end;
      let arg_nodes = args (j + 7) nargs in
      let ret_node = opt ret in
      let recv = var code.(j + 3) in
      a_callv st ~recv ~site ~ctx
        (Flat.name_str fl code.(j + 4))
        ~arg_nodes ~ret_node;
      i := j + 7 + nargs
    end
    else if op = Flat.op_calls then begin
      let nargs = code.(j + 4) in
      (if code.(j + 3) >= 0 then
         let target = (Flat.meth fl code.(j + 3)).Flat.f_meth in
         let cctx = Context.push_call_static st.t_policy ~ctx ~site in
         let ret_node = opt code.(j + 2) in
         let arg_nodes = args (j + 5) nargs in
         a_bind_call st ~site ~ctx ~target ~cctx ~this:None ~arg_nodes
           ~ret_node);
      i := j + 5 + nargs
    end
    else if op = Flat.op_start then begin
      a_start st ~recv:(var code.(j + 2)) ~site ~ctx
        ~in_loop:(code.(j + 3) = 1);
      i := j + 4
    end
    else if op = Flat.op_join then begin
      st.join_list <-
        {
          jn_site = site;
          jn_meth = m;
          jn_ctx = ctx;
          jn_var = mi.Flat.f_slot_name.(code.(j + 2));
        }
        :: st.join_list;
      i := j + 3
    end
    else if op = Flat.op_signal || op = Flat.op_wait then i := j + 3
    else if op = Flat.op_post then begin
      let nargs = code.(j + 4) in
      let arg_nodes = args (j + 5) nargs in
      a_post st ~recv:(var code.(j + 2)) ~site ~ctx ~arg_nodes
        ~in_loop:(code.(j + 3) = 1);
      i := j + 5 + nargs
    end
    else if op = Flat.op_sync then i := j + 4 (* body inlined; keep scanning *)
    else if op = Flat.op_if then i := j + 4
    else if op = Flat.op_while then i := j + 3
    else if op = Flat.op_return then begin
      if code.(j + 2) >= 0 then begin
        let dst = a_nret st m ctx in
        let src = var code.(j + 2) in
        Pag.add_copy g ~src ~dst
      end;
      i := j + 3
    end
    else assert false
  done

(* -- instance call graph ------------------------------------------------ *)

(* One DFS from the spawn entries over the solved call edges, interning
   (mid, ctx) instances and resolving every slot's points-to set up front.
   Unsolved slots share one (read-only) empty set — the same answer the
   walkers used to get from interning the node lazily. *)
let build_icg fl pag
    (call_edges :
      (int * Context.t, (Program.meth * Context.t) list ref) Hashtbl.t)
    (spawns : spawn array) =
  let empty_pts = Bitset.create () in
  let nsids = Array.length fl.Flat.f_pos in
  let intern : (int * Context.t, int) Hashtbl.t = Hashtbl.create 256 in
  let mids = ref [] and ptss = ref [] and count = ref 0 in
  let callees_tbl : (int, int array) Hashtbl.t = Hashtbl.create 256 in
  let rec visit (mt : Program.meth) ctx =
    let mid = Flat.mid_of_meth fl mt in
    let key = (mid, ctx) in
    match Hashtbl.find_opt intern key with
    | Some iid -> iid
    | None ->
        let iid = !count in
        incr count;
        Hashtbl.add intern key iid;
        let mi = fl.Flat.f_meths.(mid) in
        let pts =
          Array.init mi.Flat.f_nslots (fun s ->
              let n =
                Pag.NVar
                  ( mt.Program.m_class,
                    mt.Program.m_name,
                    mi.Flat.f_slot_name.(s),
                    ctx )
              in
              match Pag.find_node pag n with
              | Some id -> Pag.pts pag id
              | None -> empty_pts)
        in
        mids := mid :: !mids;
        ptss := pts :: !ptss;
        let code = mi.Flat.f_code in
        let len = Array.length code in
        let i = ref 0 in
        while !i < len do
          let j = !i in
          let op = code.(j) in
          let step =
            if op = Flat.op_null then 2
            else if op = Flat.op_assign then 4
            else if op = Flat.op_return then 3
            else if op = Flat.op_new then 5 + code.(j + 4)
            else if op = Flat.op_callv then 7 + code.(j + 6)
            else if op = Flat.op_calls then 5 + code.(j + 4)
            else if op = Flat.op_fwrite || op = Flat.op_fread then 5
            else if
              op = Flat.op_awrite || op = Flat.op_aread
              || op = Flat.op_swrite || op = Flat.op_sread
            then 4
            else if op = Flat.op_sync || op = Flat.op_if || op = Flat.op_start
            then 4
            else if op = Flat.op_post then 5 + code.(j + 4)
            else if
              op = Flat.op_while || op = Flat.op_join || op = Flat.op_signal
              || op = Flat.op_wait
            then 3
            else assert false
          in
          (if op = Flat.op_new || op = Flat.op_callv || op = Flat.op_calls
           then
             let sid = code.(j + 1) in
             match Hashtbl.find_opt call_edges (sid, ctx) with
             | Some l ->
                 let arr =
                   Array.of_list
                     (List.map (fun (cm, cctx) -> visit cm cctx) !l)
                 in
                 Hashtbl.replace callees_tbl ((iid * nsids) + sid) arr
             | None -> ());
          i := j + step
        done;
        iid
  in
  let entries =
    Array.map (fun sp -> visit sp.sp_entry sp.sp_ectx) spawns
  in
  {
    ic_n = !count;
    ic_mid = Array.of_list (List.rev !mids);
    ic_pts = Array.of_list (List.rev !ptss);
    ic_callees = callees_tbl;
    ic_entry = entries;
    ic_nsids = nsids;
  }

(* -- the round loop ----------------------------------------------------- *)

let analyze ?(policy = Context.Korigin 1) ?(jobs = 1) ?metrics ?budget program
    =
  Context.validate_policy policy;
  if jobs < 1 then invalid_arg "Solver.analyze: jobs must be >= 1";
  let m = match metrics with Some m -> m | None -> Metrics.create () in
  let check =
    match budget with
    | None -> None
    | Some b when Budget.is_unlimited b -> None
    | Some b -> Some (fun steps -> Budget.check b ~steps)
  in
  let pag = Pag.create () in
  let fl = Metrics.time m "pta.lower" (fun () -> Flat.lower program) in
  let st =
    {
      t_program = program;
      t_flat = fl;
      t_policy = policy;
      t_pag = pag;
      reach_tbl = Hashtbl.create 256;
      call_edges = Hashtbl.create 256;
      call_edge_keys = Hashtbl.create 256;
      n_call_edges = 0;
      spawn_list = [];
      spawn_keys = Hashtbl.create 64;
      join_list = [];
      origin_reg = OriginIntern.create ();
      origin_attr_nodes = Hashtbl.create 64;
      origin_attr_seen = Hashtbl.create 64;
      field_ids = Hashtbl.create 64;
      fld_nodes = IntTbl.create 1024;
      pending = [];
    }
  in
  (* origin id 0 is main *)
  let zero = OriginIntern.intern st.origin_reg Context.main_origin in
  assert (zero = 0);
  let main = Program.main program in
  let ectx = Context.entry policy in
  let n_rounds = ref 0 and n_tasks = ref 0 in
  Metrics.span m "pta.solve" (fun () ->
      a_reach st main ectx;
      let last_edges = ref 0 in
      let scc_threshold = ref 1024 in
      let quiescent = ref false in
      while not !quiescent do
        incr n_rounds;
        let tasks = List.rev st.pending in
        st.pending <- [];
        n_tasks := !n_tasks + List.length tasks;
        Metrics.time m "pta.apply" (fun () -> List.iter (add_body st) tasks);
        (* adaptive collapse cadence: a Tarjan pass is linear in the whole
           graph, so an acyclic workload must not pay for one every few
           edges — each fruitless pass quadruples the edge growth required
           to try again *)
        if Pag.n_edges pag - !last_edges >= !scc_threshold then begin
          let merged =
            Metrics.time m "pta.scc" (fun () -> Pag.collapse_sccs pag)
          in
          if merged = 0 then scc_threshold := !scc_threshold * 4;
          last_edges := Pag.n_edges pag
        end;
        Metrics.time m "pta.propagate" (fun () -> Pag.propagate ?check pag);
        let fired = Metrics.time m "pta.flush" (fun () -> Pag.flush_fires pag) in
        quiescent := (not fired) && st.pending == []
      done);
  record_spawn st ~site:(-1) ~entry:main ~ectx ~obj:(-1) ~kind:`Main
    ~in_loop:false ~attr_nodes:[];
  let sps =
    List.rev st.spawn_list
    |> List.sort (fun a b ->
           match (a.sp_kind, b.sp_kind) with
           | `Main, `Main -> 0
           | `Main, _ -> -1
           | _, `Main -> 1
           | _ -> compare (a.sp_site, a.sp_obj) (b.sp_site, b.sp_obj))
  in
  let spawn_arr =
    Array.of_list (List.mapi (fun i sp -> { sp with sp_id = i }) sps)
  in
  (* the paper's Table 6 columns plus the solver-internal work counters *)
  Metrics.set m "pta.pointers" (Pag.n_nodes pag);
  Metrics.set m "pta.objects" (Pag.n_objs pag);
  Metrics.set m "pta.edges" (Pag.n_edges pag);
  Metrics.set m "pta.reached_methods" (Hashtbl.length st.reach_tbl);
  Metrics.set m "pta.call_edges" st.n_call_edges;
  Metrics.set m "pta.worklist_iters" (Pag.n_worklist_iters pag);
  Metrics.set m "pta.worklist_pushes" (Pag.n_worklist_pushes pag);
  Metrics.gauge_set m "pta.worklist_peak" (Pag.worklist_peak pag);
  Metrics.set m "pta.pts_adds" (Pag.n_pts_adds pag);
  Metrics.set m "pta.pts_facts" (Pag.n_pts_facts pag);
  Metrics.set m "pta.rounds" !n_rounds;
  Metrics.set m "pta.tasks" !n_tasks;
  Metrics.set m "pta.fires" (Pag.n_fires pag);
  Metrics.set m "pta.scc_collapsed" (Pag.n_collapsed pag);
  Metrics.set m "pta.spawns" (Array.length spawn_arr);
  Metrics.set m "pta.origins"
    (match policy with
    | Context.Korigin _ -> max 0 (OriginIntern.count st.origin_reg - 1)
    | _ -> max 0 (Array.length spawn_arr - 1));
  let icg =
    Metrics.time m "pta.icg" (fun () ->
        build_icg fl pag st.call_edges spawn_arr)
  in
  {
    program;
    flat = fl;
    policy;
    pag;
    spawns = spawn_arr;
    joins = st.join_list;
    stats = m;
    tables = st;
    icg;
  }

(* -- queries over a result ---------------------------------------------- *)

let pts_var r (m : Program.meth) ctx v =
  Pag.pts r.pag
    (Pag.node_id r.pag
       (Pag.NVar (m.Program.m_class, m.Program.m_name, v, ctx)))

let callees r ~site ~ctx =
  match Hashtbl.find_opt r.tables.call_edges (site, ctx) with
  | Some l -> !l
  | None -> []

let origins r =
  Array.init (OriginIntern.count r.tables.origin_reg) (fun i ->
      OriginIntern.value r.tables.origin_reg i)

let origin_attrs r og =
  match Hashtbl.find_opt r.tables.origin_attr_nodes og with
  | None -> []
  | Some nodes ->
      List.concat_map (fun n -> Bitset.elements (Pag.pts r.pag n)) !nodes
      |> List.sort_uniq compare

let reached r =
  Hashtbl.fold
    (fun (c, mn, ctx) info acc ->
      if not info.processed then acc
      else
        match Program.find_class r.program c with
        | Some _ -> (
            match
              List.find_opt
                (fun (m : Program.meth) -> m.Program.m_name = mn)
                (Program.methods_of r.program c)
            with
            | Some m -> (m, ctx) :: acc
            | None -> acc)
        | None -> acc)
    r.tables.reach_tbl []

let is_reached r (m : Program.meth) =
  Hashtbl.fold
    (fun (c, mn, _) info acc ->
      acc
      || (info.processed && c = m.Program.m_class && mn = m.Program.m_name))
    r.tables.reach_tbl false

let origin_of_spawn r (sp : spawn) =
  match (r.policy, sp.sp_ectx) with
  | Context.Korigin _, Context.Corigin (og :: _) -> og
  | _ ->
      (* other policies have no origin registry: each spawn is its own
         origin; offset past the registry ids to keep the spaces disjoint *)
      OriginIntern.count r.tables.origin_reg + sp.sp_id

let n_origins r =
  match r.policy with
  | Context.Korigin _ -> max 0 (OriginIntern.count r.tables.origin_reg - 1)
  | _ -> max 0 (Array.length r.spawns - 1)

(* -- canonical fingerprint ---------------------------------------------- *)

(* Identifier-free dump of the solved facts. Interned ids (objects,
   origins) depend on discovery order, which differs between solvers, so
   everything is rendered structurally: two solves agree on every fact iff
   their fingerprints are equal strings. *)

let rec canon_origin origin_of buf og_id =
  let og : Context.origin = origin_of og_id in
  if og.Context.og_site = -1 then Buffer.add_string buf "O<main>"
  else begin
    Buffer.add_string buf
      (Printf.sprintf "O(%s@%d/w%d'%d" og.Context.og_class og.Context.og_site
         og.Context.og_wrapper og.Context.og_copy);
    List.iter
      (fun parent ->
        Buffer.add_char buf '<';
        canon_origin origin_of buf parent)
      og.Context.og_parent;
    Buffer.add_char buf ')'
  end

let canon_ctx origin_of buf (ctx : Context.t) =
  match ctx with
  | Context.Cempty -> Buffer.add_string buf "[]"
  | Context.Ccall xs ->
      Buffer.add_string buf "cfa[";
      List.iter (fun s -> Buffer.add_string buf (string_of_int s ^ ";")) xs;
      Buffer.add_char buf ']'
  | Context.Cobj xs ->
      Buffer.add_string buf "obj[";
      List.iter (fun s -> Buffer.add_string buf (string_of_int s ^ ";")) xs;
      Buffer.add_char buf ']'
  | Context.Corigin xs ->
      Buffer.add_string buf "org[";
      List.iter
        (fun og ->
          canon_origin origin_of buf og;
          Buffer.add_char buf ';')
        xs;
      Buffer.add_char buf ']'

let canon_obj origin_of buf (o : Pag.obj) =
  Buffer.add_string buf
    (Printf.sprintf "obj<%s@%d|" o.Pag.ob_class o.Pag.ob_site);
  canon_ctx origin_of buf o.Pag.ob_hctx;
  Buffer.add_char buf '>'

let canon_node origin_of buf (n : Pag.node) obj_of =
  match n with
  | Pag.NVar (c, m, v, ctx) ->
      Buffer.add_string buf (Printf.sprintf "var %s.%s.%s @" c m v);
      canon_ctx origin_of buf ctx
  | Pag.NRet (c, m, ctx) ->
      Buffer.add_string buf (Printf.sprintf "ret %s.%s @" c m);
      canon_ctx origin_of buf ctx
  | Pag.NField (oid, f) ->
      Buffer.add_string buf "fld ";
      canon_obj origin_of buf (obj_of oid);
      Buffer.add_string buf ("." ^ f)
  | Pag.NStatic (c, f) -> Buffer.add_string buf (Printf.sprintf "static %s.%s" c f)

let fingerprint_parts ~origin_of ~iter_nodes ~obj_of ~spawns ~call_edges
    ~joins =
  let lines = ref [] in
  let add line = lines := line :: !lines in
  iter_nodes (fun (n : Pag.node) (set : Bitset.t) ->
      if not (Bitset.is_empty set) then begin
        let buf = Buffer.create 64 in
        canon_node origin_of buf n obj_of;
        Buffer.add_string buf " => {";
        let objs =
          Bitset.fold
            (fun oid acc ->
              let b = Buffer.create 32 in
              canon_obj origin_of b (obj_of oid);
              Buffer.contents b :: acc)
            set []
          |> List.sort compare
        in
        List.iter
          (fun s ->
            Buffer.add_string buf s;
            Buffer.add_char buf ' ')
          objs;
        Buffer.add_char buf '}';
        add (Buffer.contents buf)
      end);
  List.iter
    (fun (site, kind, (entry : Program.meth), ectx, obj, in_loop) ->
      let buf = Buffer.create 64 in
      Buffer.add_string buf
        (Printf.sprintf "spawn %s@%d %s.%s loop=%b obj=" kind site
           entry.Program.m_class entry.Program.m_name in_loop);
      (match obj with
      | None -> Buffer.add_string buf "<main>"
      | Some o -> canon_obj origin_of buf o);
      Buffer.add_string buf " ectx=";
      canon_ctx origin_of buf ectx;
      add (Buffer.contents buf))
    spawns;
  List.iter
    (fun (site, ctx, (target : Program.meth), cctx) ->
      let buf = Buffer.create 64 in
      Buffer.add_string buf (Printf.sprintf "call @%d " site);
      canon_ctx origin_of buf ctx;
      Buffer.add_string buf
        (Printf.sprintf " -> %s.%s @" target.Program.m_class
           target.Program.m_name);
      canon_ctx origin_of buf cctx;
      add (Buffer.contents buf))
    call_edges;
  List.iter
    (fun (site, c, m, ctx, v) ->
      let buf = Buffer.create 64 in
      Buffer.add_string buf (Printf.sprintf "join @%d %s.%s.%s @" site c m v);
      canon_ctx origin_of buf ctx;
      add (Buffer.contents buf))
    joins;
  String.concat "\n" (List.sort compare !lines)

let fingerprint r =
  let kind_name = function
    | `Main -> "main"
    | `Thread -> "thread"
    | `Event -> "event"
  in
  fingerprint_parts
    ~origin_of:(fun og -> OriginIntern.value r.tables.origin_reg og)
    ~iter_nodes:(fun f -> Pag.iter_nodes (fun _ n set -> f n set) r.pag)
    ~obj_of:(fun oid -> Pag.obj r.pag oid)
    ~spawns:
      (Array.to_list r.spawns
      |> List.map (fun sp ->
             ( sp.sp_site,
               kind_name sp.sp_kind,
               sp.sp_entry,
               sp.sp_ectx,
               (if sp.sp_obj < 0 then None else Some (Pag.obj r.pag sp.sp_obj)),
               sp.sp_in_loop )))
    ~call_edges:
      (Hashtbl.fold
         (fun (site, ctx) l acc ->
           List.fold_left
             (fun acc (target, cctx) -> (site, ctx, target, cctx) :: acc)
             acc !l)
         r.tables.call_edges [])
    ~joins:
      (List.map
         (fun j ->
           ( j.jn_site,
             j.jn_meth.Program.m_class,
             j.jn_meth.Program.m_name,
             j.jn_ctx,
             j.jn_var ))
         r.joins)
