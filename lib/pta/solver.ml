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

(* A (method, context) instance: the solver's unit of identity, created
   once on first use. It owns the PAG node of every variable slot and of
   the return, and the reach facts of the instance. *)
type inst = {
  i_id : int;  (* dense, in creation order; the instance call graph's iid *)
  i_info : Flat.meth_info;
  i_ctx : Context.t;
  i_nodes : int array;
      (* slot -> PAG node, then the return node at [f_nslots]; -1 until
         first use *)
  mutable incoming : int list;  (* call-site sids reaching this instance *)
  mutable processed : bool;  (* reached: the body is (being) added *)
  mutable origin_allocs : (int -> unit) list;
      (* wrapper-site redo closures for origin allocations in this body *)
}

type tables = {
  t_program : Program.t;
  t_flat : Flat.t;  (* dense lowering; [add_body] scans only this *)
  t_policy : Context.policy;
  t_pag : Pag.t;
  insts : (int * Context.t, inst) Hashtbl.t;  (* (mid, ctx) -> instance *)
  mutable inst_arr : inst array;  (* iid -> instance, filled after the solve *)
  n_sids : int;
      (* an instance's call site packs as the "site key" [iid * n_sids +
         sid] *)
  incoming_seen : unit Inttbl.t;  (* site keys (callee, sid) in [incoming] *)
  call_edges : inst list ref Inttbl.t;
      (* caller site key -> callee instances, newest first *)
  call_edge_keys : unit Inttbl.t;
      (* packed (caller site key, callee iid): hashed dedup for
         [call_edges], whose per-site list scan is quadratic on
         megamorphic sites *)
  mutable n_call_edges : int;
  mutable spawn_list : spawn list;
  spawn_keys : (int * Types.cname * Types.mname * Context.t * int, unit) Hashtbl.t;
  mutable join_list : join list;
  origin_reg : OriginIntern.t;
  origin_attr_nodes : (int, int list ref) Hashtbl.t;
  origin_attr_seen : (int * int, unit) Hashtbl.t;
      (* hashed dedup for origin_attr_nodes entries *)
  fld_nodes : int Inttbl.t;
      (* packed (object id, flat field id) -> [NField] node, created on
         the first watcher fire that needs it: it is the only record of a
         field node, so every fire probes it (key = [oid lsl 20 lor fid];
         [analyze] checks the field count fits 20 bits). The low 20 bits
         hold the field id alone, so the probe is constant-time only
         because [Inttbl]'s hash mixes the object id into the bucket
         index. *)
  static_nodes : int array;  (* flat static slot -> [NStatic] node, or -1 *)
  mutable pending : inst list;  (* bodies reached since the last round *)
}

(* Instance call graph: the solved, context-sensitive call graph re-keyed
   on dense ints — a projection of the instance table. Per-instance arrays
   carry the solved points-to set of every variable slot and the callee
   instances of every call site. The origin walker ({!Walk}) traverses
   instances with nothing but array probes and one int-keyed table lookup
   per call site — no structural context hashing survives past the
   solve. *)
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
  self_par : bool array;
}

(* -- graph-building helpers --------------------------------------------- *)

let inst_of st (mi : Flat.meth_info) ctx =
  let key = (mi.Flat.f_mid, ctx) in
  match Hashtbl.find_opt st.insts key with
  | Some i -> i
  | None ->
      let i =
        {
          i_id = Hashtbl.length st.insts;
          i_info = mi;
          i_ctx = ctx;
          i_nodes = Array.make (mi.Flat.f_nslots + 1) (-1);
          incoming = [];
          processed = false;
          origin_allocs = [];
        }
      in
      Hashtbl.add st.insts key i;
      i

let inst_of_meth st (m : Program.meth) ctx =
  inst_of st (Flat.meth st.t_flat (Flat.mid_of_meth st.t_flat m)) ctx

(* The node of slot [slot] of instance [i] ([f_nslots]: the return),
   created on first use — so node ids follow first use, one per slot. *)
let inst_node st i slot =
  let id = i.i_nodes.(slot) in
  if id >= 0 then id
  else begin
    let mi = i.i_info in
    let m = mi.Flat.f_meth in
    let n =
      if slot = mi.Flat.f_nslots then
        Pag.NRet (m.Program.m_class, m.Program.m_name, i.i_ctx)
      else
        let v = mi.Flat.f_slot_name.(slot) in
        Pag.NVar (m.Program.m_class, m.Program.m_name, v, i.i_ctx)
    in
    let id = Pag.add_node st.t_pag n in
    i.i_nodes.(slot) <- id;
    id
  end

let this_node st i = inst_node st i 0
let return_node st i = inst_node st i i.i_info.Flat.f_nslots
let site_key st i sid = (i.i_id * st.n_sids) + sid

(* [call_edge_keys] packs (caller site key, callee iid) into one int: the
   callee takes the low 24 bits. The guard makes an overflow fail loudly
   instead of silently merging unrelated edges. *)
let call_edge_key sk callee =
  if callee lsr 24 <> 0 || sk lsr 38 <> 0 then
    invalid_arg "Solver.call_edge_key: exceeds the packing bound";
  (sk lsl 24) lor callee

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
let a_reach st ?(via_site = -1) i =
  let new_site =
    via_site >= 0 && not (Inttbl.mem st.incoming_seen (site_key st i via_site))
  in
  if new_site then begin
    Inttbl.add st.incoming_seen (site_key st i via_site) ();
    i.incoming <- via_site :: i.incoming
  end;
  if not i.processed then begin
    i.processed <- true;
    st.pending <- i :: st.pending
  end
  else if new_site then
    (* sites recorded before the body is added are folded in by [a_new]
       itself (it reads [incoming] then), so only genuinely late sites
       replay here *)
    List.iter (fun redo -> redo via_site) i.origin_allocs

(* Formal-parameter binding: actuals use the caller's context, formals the
   callee's (Table 2 ❽/❾ ownership note). *)
let a_bind_params st callee arg_nodes =
  let params = callee.i_info.Flat.f_param_slots in
  List.iteri
    (fun k a ->
      if k < Array.length params then
        Pag.add_copy st.t_pag ~src:a ~dst:(inst_node st callee params.(k)))
    arg_nodes

(* A repeated (caller, site, callee) edge — another receiver object of the
   same class reaching a virtual site — re-derives exactly the same
   param/ret copies (idempotent), so only the per-object "this" binding
   runs. *)
let a_bind_call st ~site ~caller ~callee ~this ~arg_nodes ~ret_node =
  (match this with
  | None -> ()
  | Some oid -> Pag.add_obj st.t_pag (this_node st callee) oid);
  let sk = site_key st caller site in
  let key = call_edge_key sk callee.i_id in
  if not (Inttbl.mem st.call_edge_keys key) then begin
    Inttbl.add st.call_edge_keys key ();
    st.n_call_edges <- st.n_call_edges + 1;
    (match Inttbl.find_opt st.call_edges sk with
    | Some l -> l := callee :: !l
    | None -> Inttbl.add st.call_edges sk (ref [ callee ]));
    a_reach st ~via_site:site callee;
    a_bind_params st callee arg_nodes;
    match ret_node with
    | Some r -> Pag.add_copy st.t_pag ~src:(return_node st callee) ~dst:r
    | None -> ()
  end

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

let a_new st ~site ~caller ~xnode ~c ~arg_nodes =
  let ctx = caller.i_ctx in
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
        a_bind_call st ~site ~caller ~callee:(inst_of_meth st init cctx)
          ~this:(Some oid) ~arg_nodes ~ret_node:None
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
              a_bind_call st ~site ~caller
                ~callee:(inst_of_meth st init hctx) ~this:(Some oid)
                ~arg_nodes ~ret_node:None)
        copies
    in
    (* one origin per incoming wrapper call site known now; re-done for call
       sites discovered later via the redo closure *)
    (match caller.incoming with
    | [] -> alloc_under ~wrapper:(-1)
    | sites -> List.iter (fun ws -> alloc_under ~wrapper:ws) sites);
    caller.origin_allocs <-
      (fun ws -> alloc_under ~wrapper:ws) :: caller.origin_allocs
  end

(* -- constraint generation ---------------------------------------------- *)

(* Field watchers fire once per (base object, access site) and every fire
   needs the object's [NField] node: one single-int probe. *)
let fld_node st oid fid =
  let key = (oid lsl 20) lor fid in
  match Inttbl.find_opt st.fld_nodes key with
  | Some n -> n
  | None ->
      let n =
        Pag.add_node st.t_pag (Pag.NField (oid, Flat.field_name st.t_flat fid))
      in
      Inttbl.add st.fld_nodes key n;
      n

let static_node st slot =
  let id = st.static_nodes.(slot) in
  if id >= 0 then id
  else begin
    let fl = st.t_flat in
    let id =
      Pag.add_node st.t_pag
        (Pag.NStatic
           ( Flat.class_name fl (Flat.static_cid fl slot),
             Flat.field_name fl (Flat.static_fid fl slot) ))
    in
    st.static_nodes.(slot) <- id;
    id
  end

(* The watcher constraints: each installs a callback on a base node that
   runs at flush time, once per object reaching the base, and may add
   edges, objects and newly reached bodies. *)

let a_field_write st ~base ~src fid =
  let g = st.t_pag in
  Pag.add_watcher g base (fun o -> Pag.add_copy g ~src ~dst:(fld_node st o fid))

let a_field_read st ~base ~dst fid =
  let g = st.t_pag in
  Pag.add_watcher g base (fun o -> Pag.add_copy g ~src:(fld_node st o fid) ~dst)

let a_callv st ~recv ~site ~caller mname ~arg_nodes ~ret_node =
  let g = st.t_pag and ctx = caller.i_ctx in
  Pag.add_watcher g recv (fun oid ->
      let o = Pag.obj g oid in
      match Program.dispatch st.t_program o.Pag.ob_class mname with
      | None -> ()
      | Some target ->
          let cctx =
            Context.push_call st.t_policy ~ctx ~site ~recv_site:o.Pag.ob_site
              ~recv_hctx:o.Pag.ob_hctx
          in
          a_bind_call st ~site ~caller ~callee:(inst_of_meth st target cctx)
            ~this:(Some oid) ~arg_nodes ~ret_node)

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
              let i = inst_of_meth st entry ectx in
              a_reach st i;
              Pag.add_obj g (this_node st i) oid;
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
              let i = inst_of_meth st entry ectx in
              a_reach st i;
              Pag.add_obj g (this_node st i) oid;
              a_bind_params st i arg_nodes;
              record_spawn st ~site ~entry ~ectx ~obj:oid ~kind:`Event
                ~in_loop
                ~attr_nodes:(arg_nodes @ a_origin_attrs_of st o))
      | _ -> ())

(* [add_body st i] turns one reached method instance into constraints by
   a linear scan of its flat opcode stream — no AST, no string hashing:
   name resolution (static targets, the §4.3 external-call bit, in-loop
   flags) was baked in by {!Flat.lower}. Instructions sit in AST DFS order
   with block bodies inlined, so constraints are added in the legacy
   tree-walk's order. Within an instruction the operands are named in
   the fixed order of the [let]s below; node ids, and with them flush order
   and every counter, depend on it. *)
let add_body st caller =
  let g = st.t_pag in
  let fl = st.t_flat in
  let mi = caller.i_info in
  let m = mi.Flat.f_meth in
  let ctx = caller.i_ctx in
  let code = mi.Flat.f_code in
  let var slot = inst_node st caller slot in
  let args at nargs = List.init nargs (fun k -> var code.(at + k)) in
  let opt slot = if slot < 0 then None else Some (var slot) in
  let static = static_node st in
  let star = fl.Flat.f_star in
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
      a_new st ~site ~caller ~xnode ~c:(Flat.class_name fl code.(j + 3))
        ~arg_nodes;
      i := j + 5 + nargs
    end
    else if op = Flat.op_fwrite then begin
      let src = var code.(j + 4) in
      let base = var code.(j + 2) in
      a_field_write st ~base ~src code.(j + 3);
      i := j + 5
    end
    else if op = Flat.op_fread then begin
      let dst = var code.(j + 2) in
      let base = var code.(j + 3) in
      a_field_read st ~base ~dst code.(j + 4);
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
      a_callv st ~recv ~site ~caller
        (Flat.name_str fl code.(j + 4))
        ~arg_nodes ~ret_node;
      i := j + 7 + nargs
    end
    else if op = Flat.op_calls then begin
      let nargs = code.(j + 4) in
      (if code.(j + 3) >= 0 then
         let cctx = Context.push_call_static st.t_policy ~ctx ~site in
         let ret_node = opt code.(j + 2) in
         let arg_nodes = args (j + 5) nargs in
         a_bind_call st ~site ~caller
           ~callee:(inst_of st (Flat.meth fl code.(j + 3)) cctx)
           ~this:None ~arg_nodes ~ret_node);
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
        let dst = return_node st caller in
        let src = var code.(j + 2) in
        Pag.add_copy g ~src ~dst
      end;
      i := j + 3
    end
    else assert false
  done

(* -- instance call graph ------------------------------------------------ *)

(* A projection of the instance table: iids are the solver's instance
   ids, callee arrays its call edges. Slots the solve never used share one
   (read-only) empty set. *)
let build_icg st (spawns : spawn array) =
  let empty_pts = Bitset.create () in
  let pag = st.t_pag in
  let callees = Hashtbl.create (Inttbl.length st.call_edges) in
  Inttbl.iter
    (fun sk l ->
      Hashtbl.replace callees sk
        (Array.of_list (List.map (fun c -> c.i_id) !l)))
    st.call_edges;
  let insts = st.inst_arr in
  {
    ic_n = Array.length insts;
    ic_mid = Array.map (fun i -> i.i_info.Flat.f_mid) insts;
    ic_pts =
      Array.map
        (fun i ->
          Array.init i.i_info.Flat.f_nslots (fun s ->
              let id = i.i_nodes.(s) in
              if id < 0 then empty_pts else Pag.pts pag id))
        insts;
    ic_callees = callees;
    ic_entry =
      Array.map
        (fun sp -> (inst_of_meth st sp.sp_entry sp.sp_ectx).i_id)
        spawns;
    ic_nsids = st.n_sids;
  }

(* -- self-parallelism ----------------------------------------------------- *)

(* Self-parallelism under the merged (non-origin) policies. An abstract
   spawn stands for every runtime execution of its start/post site that
   the context abstraction folds together; whenever that count can exceed
   one, the single abstract origin covers concurrent runtime instances
   and must race with itself. The syntactic seeds (start inside a loop,
   thread object allocated in a loop) miss the interprocedural case: a
   spawn-wrapper method called from two sites collapses to ONE instance
   under 0-ctx, so its start statement executes twice per run while the
   analysis sees one origin — a dynamically witnessed race with no static
   report. So we compute, over the solved instance call graph, which
   (method, context) instances may execute more than once: two distinct
   incoming call edges, an incoming edge from a loop, a multi-executing
   caller, or being the entry of an already self-parallel origin — and a
   spawn whose start site lives in a multi-executing instance is
   self-parallel. The entry-instance rule also covers a child spawned by
   a self-parallel origin: the parent's entry instance is marked
   multi-executing and the multiplicity propagates along call edges to
   every spawn site the parent reaches. *)
let multi_exec_self_par p fl pag icg (sps : spawn array) =
  let n = max 1 icg.ic_n in
  let multi = Array.make n false in
  let preds = Array.make n [] in
  Hashtbl.iter
    (fun key callees ->
      let caller = key / icg.ic_nsids and sid = key mod icg.ic_nsids in
      Array.iter
        (fun callee ->
          if callee >= 0 && callee < n then
            preds.(callee) <- (caller, sid) :: preds.(callee))
        callees)
    icg.ic_callees;
  Array.iteri
    (fun callee ps -> preds.(callee) <- List.sort_uniq compare ps)
    preds;
  Array.iteri
    (fun callee ps ->
      match ps with
      | _ :: _ :: _ -> multi.(callee) <- true
      | ps ->
          if List.exists (fun (_, sid) -> Program.stmt_in_loop p sid) ps then
            multi.(callee) <- true)
    preds;
  let insts_by_mid = Hashtbl.create 64 in
  Array.iteri (fun iid mid -> Hashtbl.add insts_by_mid mid iid) icg.ic_mid;
  let site_insts sid =
    let _, m = Program.stmt p sid in
    Hashtbl.find_all insts_by_mid (Flat.mid_of_meth fl m)
  in
  let sp_par =
    Array.map
      (fun sp ->
        sp.sp_in_loop
        || sp.sp_obj >= 0
           && Program.stmt_in_loop p (Pag.obj pag sp.sp_obj).Pag.ob_site)
      sps
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun callee ps ->
        if (not multi.(callee)) && List.exists (fun (c, _) -> multi.(c)) ps
        then begin
          multi.(callee) <- true;
          changed := true
        end)
      preds;
    Array.iteri
      (fun i _ ->
        if sp_par.(i) then begin
          let e = icg.ic_entry.(i) in
          if e >= 0 && e < n && not multi.(e) then begin
            multi.(e) <- true;
            changed := true
          end
        end)
      sps;
    Array.iteri
      (fun i sp ->
        if
          (not sp_par.(i))
          && sp.sp_site >= 0
          && List.exists (fun iid -> multi.(iid)) (site_insts sp.sp_site)
        then begin
          sp_par.(i) <- true;
          changed := true
        end)
      sps
  done;
  sp_par

let self_parallelism policy p fl pag icg sps =
  match policy with
  | Context.Korigin _ ->
      (* §3.2: an origin allocated in a loop is doubled, so races between
         run-time instances surface as races between the two copies;
         treating each copy as self-parallel would instead flag every
         origin-local object. The wrapper replay likewise copies origins
         per incoming call site, so the merged-policy multiplicity
         analysis is not needed here. (Re-starting one thread object is
         an error in Java, so a started origin never runs concurrently
         with itself.) *)
      Array.make (Array.length sps) false
  | _ -> multi_exec_self_par p fl pag icg sps

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
  (* the [fld_nodes] key packs the field id into 20 bits *)
  if Flat.n_fields fl lsr 20 <> 0 then
    invalid_arg "Solver.analyze: over 2^20 distinct field names";
  let st =
    {
      t_program = program;
      t_flat = fl;
      t_policy = policy;
      t_pag = pag;
      insts = Hashtbl.create 256;
      inst_arr = [||];
      n_sids = Array.length fl.Flat.f_pos;
      incoming_seen = Inttbl.create 256;
      call_edges = Inttbl.create 256;
      call_edge_keys = Inttbl.create 256;
      n_call_edges = 0;
      spawn_list = [];
      spawn_keys = Hashtbl.create 64;
      join_list = [];
      origin_reg = OriginIntern.create ();
      origin_attr_nodes = Hashtbl.create 64;
      origin_attr_seen = Hashtbl.create 64;
      fld_nodes = Inttbl.create 1024;
      static_nodes = Array.make (Flat.n_statics fl) (-1);
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
      a_reach st (inst_of_meth st main ectx);
      let quiescent = ref false in
      while not !quiescent do
        incr n_rounds;
        let tasks = List.rev st.pending in
        st.pending <- [];
        n_tasks := !n_tasks + List.length tasks;
        Metrics.time m "pta.apply" (fun () -> List.iter (add_body st) tasks);
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
  Metrics.set m "pta.reached_methods" (Hashtbl.length st.insts);
  Metrics.set m "pta.call_edges" st.n_call_edges;
  Metrics.set m "pta.worklist_iters" (Pag.n_worklist_iters pag);
  Metrics.set m "pta.worklist_pushes" (Pag.n_worklist_pushes pag);
  Metrics.gauge_set m "pta.worklist_peak" (Pag.worklist_peak pag);
  Metrics.set m "pta.pts_adds" (Pag.n_pts_adds pag);
  Metrics.set m "pta.pts_facts" (Pag.n_pts_facts pag);
  Metrics.set m "pta.rounds" !n_rounds;
  Metrics.set m "pta.tasks" !n_tasks;
  Metrics.set m "pta.fires" (Pag.n_fires pag);
  Metrics.set m "pta.spawns" (Array.length spawn_arr);
  Metrics.set m "pta.origins"
    (match policy with
    | Context.Korigin _ -> max 0 (OriginIntern.count st.origin_reg - 1)
    | _ -> max 0 (Array.length spawn_arr - 1));
  let icg, self_par =
    Metrics.time m "pta.icg" (fun () ->
        st.inst_arr <- Array.of_seq (Hashtbl.to_seq_values st.insts);
        Array.sort (fun a b -> Int.compare a.i_id b.i_id) st.inst_arr;
        let icg = build_icg st spawn_arr in
        (icg, self_parallelism policy program fl pag icg spawn_arr))
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
    self_par;
  }

(* -- queries over a result ---------------------------------------------- *)

let find_inst r (m : Program.meth) ctx =
  match Flat.mid r.flat m.Program.m_class m.Program.m_name with
  | None -> None
  | Some mid -> Hashtbl.find_opt r.tables.insts (mid, ctx)

let pts_var r m ctx v =
  let node =
    match find_inst r m ctx with
    | None -> -1
    | Some i -> (
        match Array.find_index (String.equal v) i.i_info.Flat.f_slot_name with
        | Some s -> i.i_nodes.(s)
        | None -> -1)
  in
  if node < 0 then Bitset.create () else Pag.pts r.pag node

let callees r ~site ~ctx =
  if site < 0 || site >= r.tables.n_sids then []
  else
    match find_inst r (snd (Program.stmt r.program site)) ctx with
    | None -> []
    | Some i -> (
        let sk = site_key r.tables i site in
        match Inttbl.find_opt r.tables.call_edges sk with
        | Some l -> List.map (fun c -> (c.i_info.Flat.f_meth, c.i_ctx)) !l
        | None -> [])

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
  Array.fold_right
    (fun i acc ->
      if i.processed then (i.i_info.Flat.f_meth, i.i_ctx) :: acc else acc)
    r.tables.inst_arr []

let self_parallel r sp_id =
  sp_id >= 0 && sp_id < Array.length r.self_par && r.self_par.(sp_id)

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
      (Inttbl.fold
         (fun sk l acc ->
           let caller = r.tables.inst_arr.(sk / r.tables.n_sids) in
           List.fold_left
             (fun acc c ->
               ( sk mod r.tables.n_sids,
                 caller.i_ctx,
                 c.i_info.Flat.f_meth,
                 c.i_ctx )
               :: acc)
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
