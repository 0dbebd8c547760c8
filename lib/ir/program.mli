(** Resolved CIR programs.

    {!of_decls} turns a parsed/built {!Ast.program_decl} into a resolved
    program: statements receive unique ids, classes receive their origin
    {!kind} (computed from the builtin root they inherit from — the CIR
    counterpart of the paper's Table 1 entry-point table), and lookup tables
    for dispatch are built. *)

open Types

(** The origin kind of a class, mirroring Table 1 of the paper. A
    [Kthread m] class starts a new thread origin whose entry method is [m]
    when [start]ed; a [Khandler m] class starts a new event origin with
    entry [m] when [post]ed to. *)
type kind = Kthread of mname | Khandler of mname | Kplain

type meth = {
  m_name : mname;
  m_class : cname;
  m_static : bool;
  m_params : vname list;  (** formals, excluding [this] *)
  m_locals : vname list;
  m_body : Ast.stmt list;
}

type cls = {
  c_name : cname;
  c_super : cname option;
  c_fields : fname list;  (** declared + inherited instance fields *)
  c_sfields : fname list;  (** declared static fields *)
  c_kind : kind;
  c_annot : Ast.origin_annot option;  (** explicit §3.1 origin annotation *)
}

type t

exception Ill_formed of string
(** Raised by {!of_decls} on resolution errors (duplicate class, unknown
    super, undefined variable use, missing main, …). *)

(** Builtin root classes and the entry method their subclasses use, i.e.
    the Table 1 analogue:
    [Thread → run], [Runnable → run], [Callable → call],
    [Handler → handle], [EventHandler → handleEvent],
    [Receiver → onReceive], [Listener → actionPerformed]. *)
val builtin_roots : (cname * kind) list

(** [of_decls d] resolves [d].
    @raise Ill_formed if [d] is not a well-formed program. *)
val of_decls : Ast.program_decl -> t

(** [main p] is the entry method: the static [main] of the declared main
    class. *)
val main : t -> meth

(** [find_class p c] looks up a user-declared class. *)
val find_class : t -> cname -> cls option

(** [classes p] lists user classes in declaration order. *)
val classes : t -> cls list

(** [dispatch p c m] resolves a virtual call to method [m] on an object of
    run-time class [c], walking up the superclass chain. *)
val dispatch : t -> cname -> mname -> meth option

(** [static_method p c m] resolves [C.m] for a static call (also walks
    supers). *)
val static_method : t -> cname -> mname -> meth option

(** [kind_of p c] is the origin kind of class [c] ([Kplain] for unknown). *)
val kind_of : t -> cname -> kind

(** [entry_method p c] resolves the origin entry method of thread/handler
    class [c] (e.g. its [run]); [None] for plain classes or when the class
    never overrides the entry. *)
val entry_method : t -> cname -> meth option

(** [subclass_of p c root] is true iff [c] transitively extends [root]
    (user class or builtin root). *)
val subclass_of : t -> cname -> cname -> bool

(** [n_stmts p] is the number of statements; statement ids are
    [0 … n_stmts - 1]. *)
val n_stmts : t -> int

(** [stmt p sid] recovers a statement and its enclosing method by id. *)
val stmt : t -> int -> Ast.stmt * meth

(** [stmt_in_loop p sid] is [true] iff the statement is syntactically nested
    in a [While]; origin allocations inside loops are doubled (§3.2). *)
val stmt_in_loop : t -> int -> bool

(** [iter_methods f p] applies [f] to every method of every user class, and
    to [main] last. *)
val iter_methods : (meth -> unit) -> t -> unit

(** [methods_of p c] lists methods declared directly on class [c]. *)
val methods_of : t -> cname -> meth list

(** [any_method_named p m] is true iff some class declares a method named
    [m] — used to distinguish unresolvable-but-internal calls from truly
    external functions (§4.3). *)
val any_method_named : t -> mname -> bool

