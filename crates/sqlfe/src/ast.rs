//! SQL abstract syntax.

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// A SELECT query.
    Select(Select),
    /// INSERT INTO … VALUES.
    Insert {
        /// Target table.
        table: String,
        /// Value rows.
        rows: Vec<Vec<SExpr>>,
    },
    /// UPDATE … SET … WHERE.
    Update {
        /// Target table.
        table: String,
        /// `(column, value expression)` assignments.
        set: Vec<(String, SExpr)>,
        /// Predicate.
        filter: Option<SExpr>,
    },
    /// DELETE FROM … WHERE.
    Delete {
        /// Target table.
        table: String,
        /// Predicate.
        filter: Option<SExpr>,
    },
    /// `EXPLAIN [ANALYZE] SELECT …`
    Explain {
        /// True for `EXPLAIN ANALYZE`: execute the query and annotate the
        /// plan with measured per-operator costs.
        analyze: bool,
        /// The explained query.
        query: Select,
    },
}

/// A SELECT query.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// Select list (`None` = `*`).
    pub items: Option<Vec<SelectItem>>,
    /// First FROM table.
    pub from: String,
    /// `JOIN table ON left = right` clauses, applied left-deep.
    pub joins: Vec<JoinClause>,
    /// WHERE predicate.
    pub filter: Option<SExpr>,
    /// GROUP BY expressions.
    pub group_by: Vec<SExpr>,
    /// ORDER BY `(expr, descending)`.
    pub order_by: Vec<(SExpr, bool)>,
    /// LIMIT.
    pub limit: Option<usize>,
}

/// One select-list entry.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    /// The expression (aggregates appear as [`SExpr::Agg`]).
    pub expr: SExpr,
    /// Optional `AS` alias.
    pub alias: Option<String>,
}

/// One JOIN clause.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinClause {
    /// Joined table.
    pub table: String,
    /// Left side of the ON equality.
    pub on_left: ColRef,
    /// Right side of the ON equality.
    pub on_right: ColRef,
}

/// A possibly-qualified column reference.
#[derive(Debug, Clone, PartialEq)]
pub struct ColRef {
    /// Optional table qualifier.
    pub table: Option<String>,
    /// Column name.
    pub column: String,
}

/// Aggregate functions in the AST.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggName {
    /// COUNT(*) / COUNT(expr)
    Count,
    /// SUM
    Sum,
    /// AVG
    Avg,
    /// MIN
    Min,
    /// MAX
    Max,
}

/// Scalar / boolean expression AST.
#[derive(Debug, Clone, PartialEq)]
pub enum SExpr {
    /// Column reference.
    Col(ColRef),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// `DATE 'yyyy-mm-dd'` literal, resolved to days since epoch.
    Date(i32),
    /// NULL.
    Null,
    /// Binary operation (arithmetic or comparison or AND/OR).
    Bin(BinSym, Box<SExpr>, Box<SExpr>),
    /// NOT.
    Not(Box<SExpr>),
    /// `expr BETWEEN lo AND hi`.
    Between(Box<SExpr>, Box<SExpr>, Box<SExpr>),
    /// `expr IN (…)`.
    InList(Box<SExpr>, Vec<SExpr>),
    /// `expr LIKE 'pattern'`.
    Like(Box<SExpr>, String),
    /// Aggregate call; `None` argument = `COUNT(*)`.
    Agg(AggName, Option<Box<SExpr>>),
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinSym {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
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
    /// AND
    And,
    /// OR
    Or,
}
