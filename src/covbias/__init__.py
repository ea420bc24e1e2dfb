"""covbias: gender-adjusted personalization analytics for parsed news corpora."""

from .bias import (
    BiasProfile,
    CountTable,
    SummaryStats,
    bias_profile,
    correction_factors,
    dissimilarity,
    index_distribution,
    leave_one_out,
)
from .inference import bootstrap_significance, chi_square, jitter, quantile_regression
from .lexicon import Lexicon, LexiconEntry, read_lexicon
from .model import (
    Category,
    Document,
    Gender,
    Mention,
    PersonalizationRecord,
    Politician,
    Sentence,
    SourceType,
    Token,
    normalize_lemma,
)
from .registry import PoliticianRegistry, read_registry
from .sentiment import (
    SentimentClass,
    aggregate_score,
    classify,
    krippendorff_alpha,
)
from .temporal import area_decomposition, dominance_fractions, moving_average

__version__ = "0.1.0"
