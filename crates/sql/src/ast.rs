//! The abstract syntax tree.
//!
//! Names are unresolved here — the planner binds them against schemas.
//! Scalar literals reuse nothing from the storage crate on purpose: the
//! front-end stays decoupled from the execution value model, and the
//! planner performs the (trivial) conversion.

/// A possibly-qualified column reference (`a` / `r.a`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnRef {
    /// Table name or alias, when written.
    pub qualifier: Option<String>,
    /// Column name.
    pub name: String,
}

impl std::fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.qualifier {
            Some(q) => write!(f, "{q}.{}", self.name),
            None => f.write_str(&self.name),
        }
    }
}

/// Literal values as they appear in SQL text.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// NULL.
    Null,
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
}

/// Binary comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinCmp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinArith {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

/// An unbound scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference.
    Column(ColumnRef),
    /// Literal.
    Literal(Literal),
    /// Comparison.
    Cmp(BinCmp, Box<Expr>, Box<Expr>),
    /// Arithmetic.
    Arith(BinArith, Box<Expr>, Box<Expr>),
    /// `AND`.
    And(Box<Expr>, Box<Expr>),
    /// `OR`.
    Or(Box<Expr>, Box<Expr>),
    /// `NOT`.
    Not(Box<Expr>),
    /// `expr IS NULL` / `expr IS NOT NULL` (the bool is "negated").
    IsNull(Box<Expr>, bool),
    /// `CONTAINS(expr, 'needle')` — substring predicate.
    Contains(Box<Expr>, String),
    /// `SUMMARY_COUNT(instance, 'component')` — a summary-based scalar:
    /// the count behind the named component (a class label for
    /// classifiers, a group ordinal for clusters) of the named instance's
    /// object on the current tuple.
    SummaryCount {
        /// Summary instance name.
        instance: String,
        /// Class label (classifier) or numeric group index (cluster).
        component: String,
    },
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)` / `COUNT(expr)`.
    Count,
    /// `SUM(expr)`.
    Sum,
    /// `AVG(expr)`.
    Avg,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
}

/// One item of a SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// A scalar expression with an optional alias.
    Expr {
        /// The expression.
        expr: Expr,
        /// `AS name`, when written.
        alias: Option<String>,
    },
    /// An aggregate call with an optional alias. `arg = None` is
    /// `COUNT(*)`.
    Aggregate {
        /// The aggregate function.
        func: AggFunc,
        /// The argument (`None` only for `COUNT(*)`).
        arg: Option<Expr>,
        /// `AS name`, when written.
        alias: Option<String>,
    },
}

/// A FROM-clause table reference with an optional alias.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRef {
    /// Table name.
    pub table: String,
    /// Alias (`R r`), when written.
    pub alias: Option<String>,
}

impl TableRef {
    /// The name this table's columns are visible under.
    pub fn binding(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.table)
    }
}

/// One ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    /// The sort expression.
    pub expr: Expr,
    /// True for `DESC`.
    pub desc: bool,
}

/// A SELECT statement. Explicit `JOIN … ON` clauses are desugared by the
/// parser into additional `from` entries plus `join_on` conjuncts, which
/// is the form the planner consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// `SELECT DISTINCT`.
    pub distinct: bool,
    /// The projection list.
    pub items: Vec<SelectItem>,
    /// Tables in join order.
    pub from: Vec<TableRef>,
    /// Predicates from explicit `JOIN … ON` clauses.
    pub join_on: Vec<Expr>,
    /// The WHERE predicate.
    pub where_clause: Option<Expr>,
    /// GROUP BY columns.
    pub group_by: Vec<ColumnRef>,
    /// HAVING predicate (filters groups; binds against the aggregate
    /// output, aliases included).
    pub having: Option<Expr>,
    /// ORDER BY keys.
    pub order_by: Vec<OrderKey>,
    /// LIMIT row count.
    pub limit: Option<u64>,
    /// `AS OF <tick>` — evaluate the query against the annotation set as
    /// it existed at the given logical-clock tick (time travel).
    pub as_of: Option<u64>,
}

/// `CREATE SUMMARY INSTANCE` payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum CreateInstanceStmt {
    /// Classifier with labels and optional inline training pairs.
    Classifier {
        /// Instance name.
        name: String,
        /// Output class labels, in zoom-index order.
        labels: Vec<String>,
        /// `('label': 'training text')` pairs.
        training: Vec<(String, String)>,
        /// `ANNOTATION_INVARIANT` property (default true).
        annotation_invariant: bool,
        /// `DATA_INVARIANT` property (default true).
        data_invariant: bool,
    },
    /// Clusterer with a similarity threshold.
    Cluster {
        /// Instance name.
        name: String,
        /// `THRESHOLD x` (default 0.4).
        threshold: f64,
    },
    /// Snippet summarizer.
    Snippet {
        /// Instance name.
        name: String,
        /// `MAX_SENTENCES n` (default 3).
        max_sentences: u64,
        /// `MAX_CHARS n` (default 280).
        max_chars: u64,
        /// `MIN_SOURCE n` bytes (default 512).
        min_source: u64,
    },
}

impl CreateInstanceStmt {
    /// The instance name.
    pub fn name(&self) -> &str {
        match self {
            CreateInstanceStmt::Classifier { name, .. } => name,
            CreateInstanceStmt::Cluster { name, .. } => name,
            CreateInstanceStmt::Snippet { name, .. } => name,
        }
    }
}

/// `ZOOMIN REFERENCE QID n [WHERE pred] ON instance (INDEX i | LABEL 'x')`.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoomInStmt {
    /// The referenced query result.
    pub qid: u64,
    /// Result-tuple refinement predicate.
    pub where_clause: Option<Expr>,
    /// Summary instance to expand.
    pub instance: String,
    /// Which component of the object to expand.
    pub component: ZoomComponent,
}

/// Component selector of a zoom-in.
#[derive(Debug, Clone, PartialEq)]
pub enum ZoomComponent {
    /// 1-based component index, as in Figure 3.
    Index(u64),
    /// A classifier label by name (sugar for the corresponding index).
    Label(String),
}

/// Any parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE name (col type, …)`.
    CreateTable {
        /// Table name.
        name: String,
        /// `(column name, type name)` pairs.
        columns: Vec<(String, String)>,
    },
    /// `DROP TABLE name`.
    DropTable {
        /// Table name.
        name: String,
    },
    /// `INSERT INTO name VALUES (…), (…)`.
    Insert {
        /// Table name.
        table: String,
        /// Row literals.
        rows: Vec<Vec<Literal>>,
    },
    /// A SELECT query.
    Select(SelectStmt),
    /// `ADD ANNOTATION 'text' [DOCUMENT 'd'] [AUTHOR 'a'] ON table
    /// [COLUMNS (c, …)] [WHERE pred]`.
    AddAnnotation {
        /// Annotation free text.
        text: String,
        /// Attached document.
        document: Option<String>,
        /// Curator name (default `'anonymous'`).
        author: Option<String>,
        /// Target table.
        table: String,
        /// Covered columns (empty = whole row).
        columns: Vec<String>,
        /// Row selector (`None` = all rows).
        where_clause: Option<Expr>,
    },
    /// `CREATE SUMMARY INSTANCE …`.
    CreateInstance(CreateInstanceStmt),
    /// `DROP SUMMARY INSTANCE name`.
    DropInstance {
        /// Instance name.
        name: String,
    },
    /// `LINK SUMMARY instance TO table`.
    LinkSummary {
        /// Instance name.
        instance: String,
        /// Table name.
        table: String,
    },
    /// `UNLINK SUMMARY instance FROM table`.
    UnlinkSummary {
        /// Instance name.
        instance: String,
        /// Table name.
        table: String,
    },
    /// `ZOOMIN …`.
    ZoomIn(ZoomInStmt),
    /// `EXPLAIN SELECT …` — show the plan without executing.
    Explain(SelectStmt),
    /// `DELETE FROM table [WHERE pred]` — removes rows together with
    /// their annotations and summary objects.
    DeleteRows {
        /// Target table.
        table: String,
        /// Row selector (`None` = all rows).
        where_clause: Option<Expr>,
    },
    /// `DELETE ANNOTATION n` — removes one raw annotation and refreshes
    /// the summaries of every tuple it was attached to.
    DeleteAnnotation {
        /// The annotation id.
        id: u64,
    },
    /// `RETRACT ANNOTATION n` — tombstones one annotation: its effect is
    /// decrementally removed from every summary it contributed to, but the
    /// version itself is retained for `HISTORY` / `AS OF` replay.
    RetractAnnotation {
        /// The annotation id.
        id: u64,
    },
    /// `CORRECT ANNOTATION n 'text' [DOCUMENT 'd'] [AUTHOR 'a']` — a
    /// correction supersedes its predecessor: the old version becomes a
    /// tombstone linked to the replacement, which inherits the
    /// predecessor's targets.
    CorrectAnnotation {
        /// The superseded annotation id.
        id: u64,
        /// Replacement free text.
        text: String,
        /// Replacement attached document.
        document: Option<String>,
        /// Replacement curator (defaults to the predecessor's author).
        author: Option<String>,
    },
    /// `FLAG ANNOTATION n ['reason']` — marks an annotation as disputed
    /// without removing its summary contribution.
    FlagAnnotation {
        /// The annotation id.
        id: u64,
        /// Optional reviewer note.
        note: Option<String>,
    },
    /// `HISTORY n` — replays one annotation's lifecycle timeline.
    HistoryAnnotation {
        /// The annotation id.
        id: u64,
    },
    /// `CREATE INDEX ON table (column)` — hash index for point lookups.
    CreateIndex {
        /// Target table.
        table: String,
        /// Indexed column.
        column: String,
    },
    /// `DROP INDEX ON table (column)`.
    DropIndex {
        /// Target table.
        table: String,
        /// Indexed column.
        column: String,
    },
}

/// Whether a statement only reads database state or mutates it. The
/// `insightd` session layer classifies every incoming statement to decide
/// which side of the database's reader/writer lock a request must take:
/// [`StatementClass::Read`] statements run concurrently under a shared
/// lock, [`StatementClass::Write`] statements serialize under the
/// exclusive lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatementClass {
    /// Touches no durable state: SELECT, ZOOMIN, EXPLAIN. (Session-local
    /// side effects — QID assignment, result-cache admission — are hidden
    /// behind the engine's own interior locks.)
    Read,
    /// Mutates the catalog, rows, annotations, or the summary registry.
    Write,
}

impl Statement {
    /// Classifies this statement for lock selection.
    pub fn class(&self) -> StatementClass {
        match self {
            Statement::Select(_)
            | Statement::ZoomIn(_)
            | Statement::Explain(_)
            | Statement::HistoryAnnotation { .. } => StatementClass::Read,
            Statement::CreateTable { .. }
            | Statement::DropTable { .. }
            | Statement::Insert { .. }
            | Statement::AddAnnotation { .. }
            | Statement::CreateInstance(_)
            | Statement::DropInstance { .. }
            | Statement::LinkSummary { .. }
            | Statement::UnlinkSummary { .. }
            | Statement::DeleteRows { .. }
            | Statement::DeleteAnnotation { .. }
            | Statement::RetractAnnotation { .. }
            | Statement::CorrectAnnotation { .. }
            | Statement::FlagAnnotation { .. }
            | Statement::CreateIndex { .. }
            | Statement::DropIndex { .. } => StatementClass::Write,
        }
    }
}
