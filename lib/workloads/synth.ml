open O2_ir.Builder

type spec = {
  s_name : string;
  s_thread_classes : int;
  s_instances : int;
  s_event_classes : int;
  s_helper_depth : int;
  s_helper_fanout : int;
  s_helper_alloc_sites : int;
  s_locals_direct : int;
  s_locals_helper : int;
  s_shared_locked : int;
  s_racy : int;
  s_priv : int;
  s_pool : bool;
  s_nested : bool;
  s_wrapper : bool;
  s_cyclic : int;
  s_chain : int;
  s_storm : int;
  s_lock_depth : int;
  s_self_post : bool;
  s_empty : bool;
  s_unreachable : bool;
  s_join : bool;
  s_signal : bool;
  s_arrays : int;
  s_statics : int;
  s_branch : bool;
}

let default =
  {
    s_name = "default";
    s_thread_classes = 2;
    s_instances = 1;
    s_event_classes = 1;
    s_helper_depth = 4;
    s_helper_fanout = 2;
    s_helper_alloc_sites = 2;
    s_locals_direct = 2;
    s_locals_helper = 1;
    s_shared_locked = 2;
    s_racy = 2;
    s_priv = 2;
    s_pool = false;
    s_nested = false;
    s_wrapper = false;
    s_cyclic = 0;
    s_chain = 0;
    s_storm = 2;
    s_lock_depth = 1;
    s_self_post = false;
    s_empty = false;
    s_unreachable = false;
    s_join = false;
    s_signal = false;
    s_arrays = 0;
    s_statics = 0;
    s_branch = false;
  }

(* ------------------------------------------------------------------ *)
(* spec validation: the one place every constraint lives. The generator
   used to clamp some fields ad hoc ([max 1 s_helper_fanout]) while
   letting others silently accept zero/negative values and emit
   ill-formed or degenerate programs; now every field is checked here
   and the error names the offending field. *)

let validate s =
  let atleast field floor v =
    if v < floor then
      invalid_arg
        (Printf.sprintf "Synth.validate: %s must be >= %d (got %d)" field floor
           v)
  in
  atleast "s_thread_classes" 0 s.s_thread_classes;
  atleast "s_instances" 1 s.s_instances;
  atleast "s_event_classes" 0 s.s_event_classes;
  atleast "s_helper_depth" 0 s.s_helper_depth;
  atleast "s_helper_fanout" 1 s.s_helper_fanout;
  atleast "s_helper_alloc_sites" 1 s.s_helper_alloc_sites;
  atleast "s_locals_direct" 0 s.s_locals_direct;
  atleast "s_locals_helper" 0 s.s_locals_helper;
  atleast "s_shared_locked" 0 s.s_shared_locked;
  atleast "s_racy" 0 s.s_racy;
  atleast "s_priv" 0 s.s_priv;
  atleast "s_cyclic" 0 s.s_cyclic;
  atleast "s_chain" 0 s.s_chain;
  atleast "s_storm" 1 s.s_storm;
  atleast "s_lock_depth" 1 s.s_lock_depth;
  if s.s_racy > 0 && s.s_thread_classes + s.s_event_classes = 0 then
    invalid_arg
      "Synth.validate: s_racy requires at least one thread or event class";
  if s.s_wrapper && s.s_thread_classes = 0 then
    invalid_arg "Synth.validate: s_wrapper requires s_thread_classes >= 1";
  if s.s_self_post && s.s_event_classes = 0 then
    invalid_arg "Synth.validate: s_self_post requires s_event_classes >= 1";
  atleast "s_arrays" 0 s.s_arrays;
  atleast "s_statics" 0 s.s_statics;
  if s.s_join && s.s_thread_classes = 0 then
    invalid_arg "Synth.validate: s_join requires s_thread_classes >= 1";
  if s.s_signal && s.s_thread_classes = 0 then
    invalid_arg "Synth.validate: s_signal requires s_thread_classes >= 1"

(* ------------------------------------------------------------------ *)

let sf i = Printf.sprintf "g%d" i
let rf i = Printf.sprintf "race%d" i
let lkf i = Printf.sprintf "lkf%d" i
let af i = Printf.sprintf "arr%d" i
let stf i = Printf.sprintf "st%d" i

(* helper chain: Hlp0 … Hlp<depth>. Constructors allocate the next level at
   [alloc_sites] sites (k-obj pressure); work() calls the next level at
   [fanout] sites (k-CFA pressure) and allocates helper-local Data. *)
let helper_classes spec =
  let d = spec.s_helper_depth in
  let f = spec.s_helper_fanout in
  let a = spec.s_helper_alloc_sites in
  List.init (d + 1) (fun i ->
      let name = Printf.sprintf "Hlp%d" i in
      let next = Printf.sprintf "Hlp%d" (i + 1) in
      let last = i = d in
      let fields = if last then [] else List.init a (fun j -> Printf.sprintf "nxt%d" j) in
      let init_body =
        if last then [ ret None ]
        else
          List.concat
            (List.init a (fun j ->
                 let v = Printf.sprintf "n%d" j in
                 [ new_ v next []; fwrite "this" (Printf.sprintf "nxt%d" j) v ]))
      in
      let locals_body =
        List.concat
          (List.init spec.s_locals_helper (fun j ->
               let v = Printf.sprintf "loc%d" j in
               let t = Printf.sprintf "tmp%d" j in
               [ new_ v "Data" []; fwrite v "val" v; fread t v "val" ]))
      in
      let work_body =
        if last then locals_body @ [ ret None ]
        else
          locals_body
          @ List.concat
              (List.init f (fun j ->
                   let v = Printf.sprintf "c%d" j in
                   [
                     fread v "this" (Printf.sprintf "nxt%d" (j mod a));
                     call v "work" [ "d" ];
                   ]))
      in
      cls name
        ~fields
        [ meth "init" [] init_body; meth "work" [ "d" ] work_body ])

(* body fragments shared by thread run() and handler handle().

   [idx] is the participant index; with [s_lock_depth > 1] the locked
   region nests that many locks with a per-participant rotated (and, for
   odd participants, reversed) acquisition order — lockset variety plus
   lock-order cycles. *)
let entry_accesses spec ~idx ~writes_racy ~reads_racy =
  let direct =
    List.concat
      (List.init spec.s_locals_direct (fun j ->
           let v = Printf.sprintf "d%d" j in
           let t = Printf.sprintf "dt%d" j in
           [ new_ v "Data" []; fwrite v "val" v; fread t v "val" ]))
  in
  let region =
    (* each field is touched three times in the region — the repeated
       accesses collapse under §4.1's lock-region merging *)
    List.concat
      (List.init spec.s_shared_locked (fun j ->
           [
             fwrite "sh" (sf j) "sh";
             fread (Printf.sprintf "lr%d" j) "sh" (sf j);
             fwrite "sh" (sf j) "sh";
           ]))
  in
  let locked =
    if spec.s_shared_locked = 0 then []
    else if spec.s_lock_depth = 1 then [ sync "lk" region ]
    else begin
      let d = spec.s_lock_depth in
      let order = List.init d (fun k -> (idx + k) mod d) in
      let order = if idx mod 2 = 1 then List.rev order else order in
      let lkv j = Printf.sprintf "lkv%d" j in
      let reads = List.map (fun j -> fread (lkv j) "sh" (lkf j)) order in
      let nest =
        List.fold_left (fun inner j -> [ sync (lkv j) inner ]) region
          (List.rev order)
      in
      reads @ nest
    end
  in
  let racy_w = List.map (fun j -> fwrite "sh" (rf j) "sh") writes_racy in
  let racy_r =
    List.map (fun j -> fread (Printf.sprintf "rr%d" j) "sh" (rf j)) reads_racy
  in
  (* shared arrays: every participant writes and reads the same element
     cells ([*] accesses), racy by construction *)
  let arrays =
    List.concat
      (List.init spec.s_arrays (fun j ->
           let av = Printf.sprintf "av%d" j in
           let at = Printf.sprintf "at%d" j in
           [ fread av "sh" (af j); awrite av av; aread at av ]))
  in
  (* static (class-global) fields: shared without any pointer chain *)
  let statics =
    List.concat
      (List.init spec.s_statics (fun j ->
           let st = Printf.sprintf "stv%d" j in
           [ swrite "GlobalBox" (stf j) "sh"; sread st "GlobalBox" (stf j) ]))
  in
  let racy = racy_w @ racy_r in
  (* branch shapes: put the racy accesses under both arms of an [if] —
     statically both arms count, dynamically one is taken per run *)
  let racy =
    if spec.s_branch && racy <> [] then [ if_ racy_r racy_w ] @ racy else racy
  in
  direct @ locked @ arrays @ statics @ racy

(* distribute the racy fields over (writer, reader) origin pairs:
   field j is written by participant (j mod n) and read by ((j+1) mod n),
   where participants are thread classes then event classes. *)
let race_plan spec =
  let n = spec.s_thread_classes + spec.s_event_classes in
  let writers = Array.make (max n 1) [] and readers = Array.make (max n 1) [] in
  for j = 0 to spec.s_racy - 1 do
    let w = j mod n in
    let r = (j + 1) mod n in
    let r = if r = w then (r + 1) mod n else r in
    writers.(w) <- j :: writers.(w);
    readers.(r) <- j :: readers.(r)
  done;
  (writers, readers)

let thread_class spec ~idx ~writers ~readers =
  let name = Printf.sprintf "Worker%d" idx in
  (* per-class private objects reached through fields with names shared by
     every class: distinct objects, so no race — but a syntactic detector
     without aliasing conflates them (RacerD's main false-positive source) *)
  let priv_init =
    List.concat
      (List.init spec.s_priv (fun j ->
           let v = Printf.sprintf "pv%d" j in
           [ new_ v "Data" []; fwrite "this" (Printf.sprintf "priv%d" j) v ]))
  in
  let priv_access =
    List.concat
      (List.init spec.s_priv (fun j ->
           let d = Printf.sprintf "pd%d" j in
           let t = Printf.sprintf "pt%d" j in
           [
             fread d "this" (Printf.sprintf "priv%d" j);
             fwrite d "pval" d;
             fread t d "pval";
           ]))
  in
  let body =
    [ fread "sh" "this" "shared"; fread "lk" "this" "lock";
      fread "h" "this" "helper" ]
    @ priv_access
    @ entry_accesses spec ~idx ~writes_racy:writers ~reads_racy:readers
    @ [ call "h" "work" [ "sh" ] ]
    @ (if spec.s_nested && idx = 0 then
         [ new_ "kid" "NestedChild" [ "sh" ]; start "kid" ]
       else [])
    @ (if spec.s_signal && idx = 0 then
         (* publish, then signal: the signal→wait HB edge orders this
            write before main's post-wait read of [sig] *)
         [ fwrite "sh" "sig" "sh"; fread "sv" "sh" "sem"; signal "sv" ]
       else [])
    @ [ ret None ]
  in
  cls name ~super:"Thread"
    ~fields:
      ([ "shared"; "lock"; "helper" ]
      @ List.init spec.s_priv (fun j -> Printf.sprintf "priv%d" j))
    [
      meth "init" [ "s"; "l"; "h" ]
        ([
           fwrite "this" "shared" "s";
           fwrite "this" "lock" "l";
           fwrite "this" "helper" "h";
         ]
        @ priv_init);
      meth "run" [] body;
    ]

let event_class spec ~idx ~writers ~readers =
  let name = Printf.sprintf "Evt%d" idx in
  let self_post = spec.s_self_post && idx = 0 in
  let body =
    [ fread "sh" "this" "shared"; fread "lk" "this" "lock" ]
    @ entry_accesses spec ~idx:(spec.s_thread_classes + idx)
        ~writes_racy:writers ~reads_racy:readers
    @ (if self_post then [ fread "me" "this" "self"; post "me" [] ] else [])
    @ [ ret None ]
  in
  cls name ~super:"Handler"
    ~fields:([ "shared"; "lock" ] @ if self_post then [ "self" ] else [])
    [
      meth "init" [ "s"; "l" ]
        [ fwrite "this" "shared" "s"; fwrite "this" "lock" "l" ];
      meth "handle" [] body;
    ]

(* event chains: Chain0 … Chain<n-1>, each handle() re-posting the next
   (cyclically), every hop writing the same shared field. Handlers that
   post are the origin-from-origin static path; the cyclic wiring keeps
   the runtime free of null posts (the trace is step-bounded instead). *)
let chain_classes spec =
  List.init spec.s_chain (fun i ->
      cls
        (Printf.sprintf "Chain%d" i)
        ~super:"Handler" ~fields:[ "shared"; "next" ]
        [
          meth "init" [ "s" ] [ fwrite "this" "shared" "s" ];
          meth "handle" []
            [
              fread "sh" "this" "shared";
              fwrite "sh" "chain" "sh";
              fread "nx" "this" "next";
              post "nx" [];
              ret None;
            ];
        ])

(* adversarial degenerate shapes: entry methods with empty bodies and a
   method-less class *)
let empty_classes =
  [
    cls "EmptyT" ~super:"Thread" [ meth "run" [] [] ];
    cls "EmptyH" ~super:"Handler" [ meth "handle" [] [] ];
    cls "Inert" ~fields:[ "f" ] [];
  ]

(* a helper whose only method is never called: its accesses must not
   reach any report *)
let ghost_class =
  cls "Ghost" ~fields:[ "g" ]
    [
      meth "phantom" []
        [
          new_ "d" "Data" [];
          fwrite "this" "g" "d";
          fread "t" "this" "g";
          fwrite "d" "val" "t";
          ret None;
        ];
    ]

let nested_child =
  cls "NestedChild" ~super:"Thread" ~fields:[ "shared" ]
    [
      meth "init" [ "s" ] [ fwrite "this" "shared" "s" ];
      meth "run" []
        [
          fread "sh" "this" "shared";
          new_ "priv" "Data" [];
          fwrite "priv" "val" "priv";
          ret None;
        ];
    ]

let program spec =
  validate spec;
  let tw, tr = race_plan spec in
  let part i = (tw.(i), tr.(i)) in
  let threads =
    List.init spec.s_thread_classes (fun i ->
        let w, r = part i in
        thread_class spec ~idx:i ~writers:w ~readers:r)
  in
  let events =
    List.init spec.s_event_classes (fun i ->
        let w, r = part (spec.s_thread_classes + i) in
        event_class spec ~idx:i ~writers:w ~readers:r)
  in
  let helper = helper_classes spec in
  let shared_fields =
    List.init spec.s_shared_locked sf
    @ List.init spec.s_racy rf
    @ List.init spec.s_arrays af
    @ (if spec.s_chain > 0 then [ "chain" ] else [])
    @ (if spec.s_signal && spec.s_thread_classes > 0 then [ "sem"; "sig" ]
       else [])
    @
    if spec.s_lock_depth > 1 && spec.s_shared_locked > 0 then
      List.init spec.s_lock_depth lkf
    else []
  in
  let data = cls "Data" ~fields:[ "val"; "next"; "pval" ] [] in
  let shared = cls "SharedState" ~fields:shared_fields [] in
  let lockc = cls "Lk" ~fields:[ "held" ] [] in
  let globals =
    if spec.s_statics = 0 then []
    else [ cls "GlobalBox" ~sfields:(List.init spec.s_statics stf) [] ]
  in
  let wrapper =
    cls "Factory"
      [
        meth ~static:true "spawn" [ "s"; "l"; "h" ]
          [ new_ "t" "Worker0" [ "s"; "l"; "h" ]; start "t"; ret None ];
      ]
  in
  (* copy-cycle rings: 8 locals per ring assigned cyclically, so the PAG
     gains [8 * s_cyclic] copy edges all lying on variable cycles, and
     each ring's object propagates around its cycle edge by edge *)
  let cyclic_rings =
    List.concat
      (List.init spec.s_cyclic (fun i ->
           let v j = Printf.sprintf "cy%d_%d" i (j mod 8) in
           new_ (v 0) "Data" []
           :: List.init 8 (fun j -> assign (v (j + 1)) (v j))))
  in
  let lock_field_init =
    if spec.s_lock_depth > 1 && spec.s_shared_locked > 0 then
      List.concat
        (List.init spec.s_lock_depth (fun j ->
             let v = Printf.sprintf "lko%d" j in
             [ new_ v "Lk" []; fwrite "s" (lkf j) v ]))
    else []
  in
  let array_init =
    List.concat
      (List.init spec.s_arrays (fun j ->
           let v = Printf.sprintf "ar%d" j in
           [ new_ v "Data" []; fwrite "s" (af j) v ]))
  in
  let sem_init =
    if spec.s_signal && spec.s_thread_classes > 0 then
      [ new_ "sem" "Lk" []; fwrite "s" "sem" "sem" ]
    else []
  in
  (* post-spawn HB tail: wait on the semaphore the workers signal, then
     read the published field; join one spawned thread, then re-read the
     racy fields — reads whose race status hinges on the wait/join edges *)
  let wait_tail =
    if spec.s_signal && spec.s_thread_classes > 0 then
      [ wait "sem"; fread "sgr" "s" "sig" ]
    else []
  in
  let join_ok =
    spec.s_join
    && spec.s_thread_classes > 0
    && (not spec.s_pool)
    && not (spec.s_wrapper && spec.s_thread_classes = 1)
  in
  let join_tail =
    if not join_ok then []
    else
      join (Printf.sprintf "t%d_0" (spec.s_thread_classes - 1))
      :: List.init spec.s_racy (fun j ->
             fread (Printf.sprintf "jr%d" j) "s" (rf j))
  in
  let chain_wiring =
    if spec.s_chain = 0 then []
    else
      let cv i = Printf.sprintf "c%d" i in
      List.init spec.s_chain (fun i ->
          new_ (cv i) (Printf.sprintf "Chain%d" i) [ "s" ])
      @ List.init spec.s_chain (fun i ->
            fwrite (cv i) "next" (cv ((i + 1) mod spec.s_chain)))
      @ [ post (cv 0) [] ]
  in
  let empty_wiring =
    if not spec.s_empty then []
    else
      [
        new_ "et" "EmptyT" []; start "et"; new_ "eh" "EmptyH" []; post "eh" [];
      ]
  in
  let main_body =
    [
      new_ "s" "SharedState" [];
      new_ "l" "Lk" [];
      new_ "h" "Hlp0" [];
    ]
    @ lock_field_init @ array_init @ sem_init
    @ cyclic_rings
    @ List.concat
        (List.init spec.s_thread_classes (fun i ->
             let cname = Printf.sprintf "Worker%d" i in
             if spec.s_wrapper && i = 0 then
               [
                 scall "Factory" "spawn" [ "s"; "l"; "h" ];
                 scall "Factory" "spawn" [ "s"; "l"; "h" ];
               ]
             else if spec.s_pool then
               [
                 while_
                   [
                     new_ (Printf.sprintf "t%d" i) cname [ "s"; "l"; "h" ];
                     start (Printf.sprintf "t%d" i);
                   ];
               ]
             else
               List.concat
                 (List.init spec.s_instances (fun j ->
                      let v = Printf.sprintf "t%d_%d" i j in
                      [ new_ v cname [ "s"; "l"; "h" ]; start v ]))))
    @ List.concat
        (List.init spec.s_event_classes (fun i ->
             let v = Printf.sprintf "e%d" i in
             [ new_ v (Printf.sprintf "Evt%d" i) [ "s"; "l" ] ]
             @ (if spec.s_self_post && i = 0 then [ fwrite v "self" v ]
                else [])
             @ List.init spec.s_storm (fun _ -> post v [])))
    @ chain_wiring @ empty_wiring @ wait_tail @ join_tail
    @ [ ret None ]
  in
  let mainc = cls "Main" [ meth ~static:true "main" [] main_body ] in
  prog ~main:"Main"
    ([ data; shared; lockc; nested_child ]
    @ globals @ helper @ threads @ events @ chain_classes spec
    @ (if spec.s_empty then empty_classes else [])
    @ (if spec.s_unreachable then [ ghost_class ] else [])
    @ (if spec.s_wrapper then [ wrapper ] else [])
    @ [ mainc ])

(* ------------------------------------------------------------------ *)
(* named suites *)

let mk name ?(tc = 2) ?(inst = 1) ?(ev = 1) ?(depth = 4) ?(fan = 2) ?(allo = 2)
    ?(ld = 2) ?(lh = 1) ?(locked = 2) ?(racy = 2) ?priv ?(pool = false)
    ?(nested = false) ?(wrapper = false) ?(cyclic = 0) ?(chain = 0)
    ?(storm = 2) ?(lockd = 1) ?(selfpost = false) ?(empty = false)
    ?(unreach = false) ?(join = false) ?(sig_ = false) ?(arrays = 0)
    ?(statics = 0) ?(branch = false) () =
  let priv = match priv with Some p -> p | None -> ld in
  {
    s_name = name;
    s_thread_classes = tc;
    s_instances = inst;
    s_event_classes = ev;
    s_helper_depth = depth;
    s_helper_fanout = fan;
    s_helper_alloc_sites = allo;
    s_locals_direct = ld;
    s_locals_helper = lh;
    s_shared_locked = locked;
    s_racy = racy;
    s_priv = priv;
    s_pool = pool;
    s_nested = nested;
    s_wrapper = wrapper;
    s_cyclic = cyclic;
    s_chain = chain;
    s_storm = storm;
    s_lock_depth = lockd;
    s_self_post = selfpost;
    s_empty = empty;
    s_unreachable = unreach;
    s_join = join;
    s_signal = sig_;
    s_arrays = arrays;
    s_statics = statics;
    s_branch = branch;
  }

(* Dacapo-shaped: few origins (#O 3–9), deep library call chains, lots of
   local data that 0-ctx conflates (large Table 8 spread). *)
let dacapo =
  [
    mk "avrora" ~tc:2 ~inst:2 ~ev:0 ~depth:6 ~fan:3 ~allo:3 ~ld:18 ~lh:2
      ~locked:4 ~racy:3 ();
    mk "batik" ~tc:2 ~inst:2 ~ev:0 ~depth:7 ~fan:4 ~allo:4 ~ld:10 ~lh:2
      ~locked:3 ~racy:2 ();
    mk "eclipse" ~tc:2 ~inst:2 ~ev:0 ~depth:5 ~fan:2 ~allo:2 ~ld:8 ~lh:1
      ~locked:4 ~racy:1 ();
    mk "h2" ~tc:3 ~inst:1 ~ev:0 ~depth:8 ~fan:4 ~allo:4 ~ld:24 ~lh:3 ~locked:6
      ~racy:6 ~pool:true ();
    mk "jython" ~tc:2 ~inst:2 ~ev:0 ~depth:9 ~fan:4 ~allo:4 ~ld:30 ~lh:3
      ~locked:4 ~racy:8 ();
    mk "luindex" ~tc:3 ~inst:1 ~ev:0 ~depth:6 ~fan:3 ~allo:3 ~ld:16 ~lh:2
      ~locked:3 ~racy:4 ();
    mk "lusearch" ~tc:3 ~inst:1 ~ev:0 ~depth:4 ~fan:2 ~allo:2 ~ld:10 ~lh:1
      ~locked:2 ~racy:3 ();
    mk "pmd" ~tc:3 ~inst:1 ~ev:0 ~depth:4 ~fan:2 ~allo:2 ~ld:6 ~lh:1 ~locked:2
      ~racy:2 ();
    mk "sunflow" ~tc:3 ~inst:3 ~ev:0 ~depth:5 ~fan:3 ~allo:3 ~ld:20 ~lh:2
      ~locked:3 ~racy:5 ~pool:true ();
    mk "tomcat" ~tc:3 ~inst:2 ~ev:3 ~depth:5 ~fan:3 ~allo:4 ~ld:8 ~lh:1
      ~locked:4 ~racy:3 ~wrapper:true ();
    mk "tradebeans" ~tc:3 ~inst:1 ~ev:0 ~depth:4 ~fan:2 ~allo:2 ~ld:5 ~lh:1
      ~locked:3 ~racy:2 ();
    mk "tradesoap" ~tc:3 ~inst:1 ~ev:0 ~depth:4 ~fan:2 ~allo:2 ~ld:5 ~lh:1
      ~locked:3 ~racy:2 ();
    mk "xalan" ~tc:3 ~inst:1 ~ev:0 ~depth:6 ~fan:4 ~allo:3 ~ld:2 ~lh:1
      ~locked:4 ~racy:1 ();
  ]

(* Android-shaped: event-heavy, many origins, short handlers. *)
let android =
  [
    mk "connectbot" ~tc:3 ~inst:1 ~ev:8 ~depth:4 ~fan:3 ~allo:3 ~ld:6 ~lh:1
      ~locked:2 ~racy:2 ();
    mk "sipdroid" ~tc:4 ~inst:1 ~ev:11 ~depth:5 ~fan:3 ~allo:3 ~ld:8 ~lh:1
      ~locked:2 ~racy:3 ();
    mk "k9mail" ~tc:5 ~inst:2 ~ev:18 ~depth:5 ~fan:3 ~allo:3 ~ld:8 ~lh:1
      ~locked:3 ~racy:3 ();
    mk "tasks" ~tc:2 ~inst:1 ~ev:5 ~depth:5 ~fan:4 ~allo:4 ~ld:5 ~lh:1
      ~locked:2 ~racy:2 ();
    mk "fbreader" ~tc:4 ~inst:1 ~ev:11 ~depth:5 ~fan:3 ~allo:4 ~ld:6 ~lh:1
      ~locked:2 ~racy:2 ();
    mk "vlc" ~tc:2 ~inst:1 ~ev:2 ~depth:7 ~fan:4 ~allo:4 ~ld:6 ~lh:2 ~locked:2
      ~racy:2 ();
    mk "firefox_focus" ~tc:3 ~inst:1 ~ev:5 ~depth:5 ~fan:4 ~allo:4 ~ld:5 ~lh:1
      ~locked:2 ~racy:2 ();
    mk "telegram" ~tc:10 ~inst:4 ~ev:100 ~depth:5 ~fan:3 ~allo:3 ~ld:6 ~lh:1
      ~locked:4 ~racy:6 ~pool:true ();
    mk "zoom" ~tc:5 ~inst:1 ~ev:10 ~depth:6 ~fan:4 ~allo:4 ~ld:8 ~lh:1
      ~locked:3 ~racy:3 ();
    mk "chrome" ~tc:8 ~inst:2 ~ev:20 ~depth:6 ~fan:4 ~allo:4 ~ld:6 ~lh:1
      ~locked:4 ~racy:3 ~nested:true ();
  ]

(* Distributed-system-shaped: many threads and events, big shared state. *)
let distributed =
  [
    mk "hbase" ~tc:8 ~inst:2 ~ev:8 ~depth:8 ~fan:4 ~allo:4 ~ld:30 ~lh:3
      ~locked:10 ~racy:12 ~pool:true ~nested:true ();
    mk "hdfs" ~tc:6 ~inst:2 ~ev:6 ~depth:8 ~fan:4 ~allo:4 ~ld:34 ~lh:3
      ~locked:10 ~racy:14 ~pool:true ();
    mk "yarn" ~tc:7 ~inst:2 ~ev:7 ~depth:9 ~fan:4 ~allo:4 ~ld:38 ~lh:3
      ~locked:12 ~racy:16 ~pool:true ~nested:true ();
    mk "zookeeper" ~tc:12 ~inst:2 ~ev:28 ~depth:6 ~fan:3 ~allo:3 ~ld:22 ~lh:2
      ~locked:8 ~racy:10 ~pool:true ();
  ]

(* C-application-shaped (Table 6): memcached small event+thread mix, redis
   with nested spawning, sqlite3 large and nearly single-origin. *)
let capps =
  [
    mk "memcached" ~tc:4 ~inst:2 ~ev:4 ~depth:5 ~fan:3 ~allo:3 ~ld:10 ~lh:1
      ~locked:4 ~racy:3 ();
    mk "redis" ~tc:5 ~inst:2 ~ev:5 ~depth:8 ~fan:4 ~allo:4 ~ld:16 ~lh:2
      ~locked:6 ~racy:5 ~nested:true ();
    mk "sqlite3" ~tc:1 ~inst:2 ~ev:0 ~depth:12 ~fan:5 ~allo:5 ~ld:40 ~lh:4
      ~locked:8 ~racy:2 ();
  ]

(* Solver-stress shapes outside the paper's benchmark sets. [cyclic] seeds
   copy-cycle rings, so propagation around variable cycles is pinned by
   the counters golden; [chainstorm] piles event
   chains, post storms and nested out-of-order locks on one program for
   the fuzz/bench scale rows. *)
let stress =
  [
    mk "cyclic" ~tc:2 ~inst:1 ~ev:1 ~ld:4 ~racy:2 ~cyclic:160 ();
    mk "chainstorm" ~tc:3 ~inst:2 ~ev:12 ~depth:3 ~ld:4 ~locked:4 ~racy:4
      ~chain:8 ~storm:12 ~lockd:3 ~selfpost:true ();
    (* every happens-before edge kind plus array/static/branch accesses in
       one program — the HB-sensitive counterpart to [chainstorm] *)
    mk "hbmix" ~tc:3 ~inst:2 ~ev:2 ~depth:2 ~ld:2 ~locked:3 ~racy:4 ~join:true
      ~sig_:true ~arrays:2 ~statics:2 ~branch:true ~lockd:2 ();
  ]

let all_specs = dacapo @ android @ distributed @ capps @ stress

let find name =
  match List.find_opt (fun s -> s.s_name = name) all_specs with
  | Some s -> s
  | None -> raise Not_found

let scaling ~n =
  program
    (mk (Printf.sprintf "scale%d" n) ~tc:2 ~inst:1 ~ev:1
       ~depth:(max 1 n) ~fan:2 ~allo:2 ~ld:4 ~lh:2 ~locked:2 ~racy:2 ())

(* ------------------------------------------------------------------ *)
(* the QCheck shape-space generator behind `o2 fuzz` *)

let gen : spec QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* tc = frequency [ (4, int_range 0 4); (2, int_range 1 8) ] in
  let* inst = int_range 1 4 in
  (* occasionally explode the origin count: hundreds of handler classes,
     each posted [storm] times *)
  let* ev = frequency [ (6, int_range 0 5); (1, int_range 20 120) ] in
  let* storm = frequency [ (5, int_range 1 3); (1, int_range 8 40) ] in
  let* depth = int_range 0 6 in
  let* fan = int_range 1 4 in
  let* allo = int_range 1 4 in
  let* ld = int_range 0 6 in
  let* lh = int_range 0 2 in
  let* locked = int_range 0 5 in
  let* racy = if tc + ev = 0 then pure 0 else int_range 0 6 in
  let* priv = int_range 0 3 in
  let* pool = bool in
  let* nested = bool in
  let* wrapper = if tc = 0 then pure false else bool in
  let* cyclic = frequency [ (5, pure 0); (1, int_range 1 24) ] in
  let* chain = frequency [ (4, pure 0); (2, int_range 1 10) ] in
  let* lockd = frequency [ (4, pure 1); (2, int_range 2 4) ] in
  let* selfpost = if ev = 0 then pure false else bool in
  let* empty = frequency [ (3, pure false); (1, pure true) ] in
  let* unreach = frequency [ (3, pure false); (1, pure true) ] in
  let* join = if tc = 0 then pure false else bool in
  let* sig_ = if tc = 0 then pure false else bool in
  let* arrays = frequency [ (3, pure 0); (2, int_range 1 3) ] in
  let* statics = frequency [ (3, pure 0); (2, int_range 1 3) ] in
  let+ branch = frequency [ (2, pure false); (1, pure true) ] in
  {
    s_name = "fuzz";
    s_thread_classes = tc;
    s_instances = inst;
    s_event_classes = ev;
    s_helper_depth = depth;
    s_helper_fanout = fan;
    s_helper_alloc_sites = allo;
    s_locals_direct = ld;
    s_locals_helper = lh;
    s_shared_locked = locked;
    s_racy = racy;
    s_priv = priv;
    s_pool = pool;
    s_nested = nested;
    s_wrapper = wrapper;
    s_cyclic = cyclic;
    s_chain = chain;
    s_storm = storm;
    s_lock_depth = lockd;
    s_self_post = selfpost;
    s_empty = empty;
    s_unreachable = unreach;
    s_join = join;
    s_signal = sig_;
    s_arrays = arrays;
    s_statics = statics;
    s_branch = branch;
  }

let spec_of_seed ~seed ~index =
  let rand = Random.State.make [| 0x02f5; seed; index |] in
  let s = QCheck2.Gen.generate1 ~rand gen in
  { s with s_name = Printf.sprintf "fuzz-s%d-i%d" seed index }

let pp_spec ppf s =
  Format.fprintf ppf
    "{%s tc=%d inst=%d ev=%d depth=%d fan=%d allo=%d ld=%d lh=%d locked=%d \
     racy=%d priv=%d pool=%b nested=%b wrapper=%b cyclic=%d chain=%d \
     storm=%d lockd=%d selfpost=%b empty=%b unreach=%b join=%b sig=%b \
     arrays=%d statics=%d branch=%b}"
    s.s_name s.s_thread_classes s.s_instances s.s_event_classes
    s.s_helper_depth s.s_helper_fanout s.s_helper_alloc_sites s.s_locals_direct
    s.s_locals_helper s.s_shared_locked s.s_racy s.s_priv s.s_pool s.s_nested
    s.s_wrapper s.s_cyclic s.s_chain s.s_storm s.s_lock_depth s.s_self_post
    s.s_empty s.s_unreachable s.s_join s.s_signal s.s_arrays s.s_statics
    s.s_branch
